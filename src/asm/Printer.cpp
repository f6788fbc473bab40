//===-- asm/Printer.cpp - MiniVM IR to .mvm text -----------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "asm/Printer.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace dchm {

namespace {

/// Shortest text that reads back as exactly V, always spelled as a float.
std::string formatDouble(double V) {
  if (std::isnan(V))
    return std::signbit(V) ? "-nan" : "nan";
  if (std::isinf(V))
    return V < 0 ? "-inf" : "inf";
  char Buf[32];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  std::string S(Buf, Res.ptr);
  if (S.find_first_of(".e") == std::string::npos)
    S += ".0";
  return S;
}

class BodyPrinter {
public:
  BodyPrinter(const Program &P, const IRFunction &F, bool HasThis,
              std::string &Out)
      : P(P), F(F), HasThis(HasThis), Out(Out), N(F.Insts.size()),
        Defs(F.RegTypes.size(), 0), Uses(F.RegTypes.size(), 0),
        FirstDef(F.RegTypes.size(), N), FirstUse(F.RegTypes.size(), N),
        ReboundByOp(F.RegTypes.size(), false), LabelOf(N, -1),
        Into(N, NoReg) {}

  void print() {
    for (size_t I = 0; I < N; ++I) {
      const Instruction &Inst = F.Insts[I];
      forEachUse(Inst, [&](Reg R) {
        ++Uses[R];
        FirstUse[R] = std::min(FirstUse[R], I);
      });
      if (Inst.hasDst()) {
        Reg D = Inst.Dst;
        ReboundByOp[D] = ReboundByOp[D] || (Defs[D] && Inst.Op != Opcode::Move);
        ++Defs[D];
        FirstDef[D] = std::min(FirstDef[D], I);
      }
      if (isBranch(Inst.Op))
        LabelOf[static_cast<size_t>(Inst.Imm)] = 0;
    }
    int NextLabel = 0;
    for (int &L : LabelOf)
      if (L == 0)
        L = ++NextLabel;
    // "%t = op ...; %r = move %t", with %t used only there, prints as
    // "%r = op ...", which the assembler turns back into the same pair.
    for (size_t I = 1; I < N; ++I) {
      const Instruction &Mv = F.Insts[I], &Op = F.Insts[I - 1];
      if (Mv.Op == Opcode::Move && LabelOf[I] < 0 && Op.Dst == Mv.A &&
          Op.Op != Opcode::Move && Uses[Mv.A] == 1 && bindsAtDef(Mv.A) &&
          bindsAtDef(Mv.Dst) && FirstDef[Mv.Dst] < I - 1)
        Into[I - 1] = Mv.Dst;
    }
    NextDecl = F.NumArgs;

    for (size_t I = 0; I < N; ++I) {
      if (I > 0 && Into[I - 1] != NoReg)
        continue; // the move folded into the line before
      const Instruction &Inst = F.Insts[I];
      if (LabelOf[I] > 0)
        Out += "  @L" + std::to_string(LabelOf[I]) + ":\n";
      // Declare, in index order, every var register below the highest one
      // this instruction introduces, so the assembler numbers registers as
      // the body does wherever the body allows it.
      size_t Limit = 0;
      forEachUse(Inst, [&](Reg R) {
        if (!bindsAtDef(R))
          Limit = std::max<size_t>(Limit, R + 1);
      });
      if (Inst.hasDst())
        Limit = std::max<size_t>(Limit, bindsAtDef(Inst.Dst) ? Inst.Dst
                                                              : Inst.Dst + 1);
      declareBelow(Limit);
      Out += "    ";
      if (Inst.hasDst())
        Out += reg(Into[I] != NoReg ? Into[I] : Inst.Dst) + " = ";
      printOperation(Inst);
      Out += '\n';
    }
  }

private:
  template <typename Fn> static void forEachUse(const Instruction &I, Fn F) {
    for (Reg R : {I.A, I.B, I.C})
      if (R != NoReg)
        F(R);
    for (Reg R : I.Args)
      F(R);
  }

  /// True when the assembler can bind R by name at its first definition:
  /// R is no argument, nothing reads it at or before that definition, and
  /// only moves write it afterwards (an assignment to a bound name is a
  /// move). Every other register is declared with `var` and written in
  /// place.
  bool bindsAtDef(Reg R) const {
    return R >= F.NumArgs && FirstDef[R] < FirstUse[R] && !ReboundByOp[R];
  }

  void declareBelow(size_t Limit) {
    std::string Line;
    for (; NextDecl < Limit; ++NextDecl) {
      Reg R = static_cast<Reg>(NextDecl);
      bool Mentioned = Defs[R] || Uses[R];
      if (!Mentioned || bindsAtDef(R))
        continue;
      Line += Line.empty() ? "    var " : ", ";
      Line += reg(R) + ": " + typeName(F.RegTypes[R]);
    }
    if (!Line.empty())
      Out += Line + '\n';
  }

  std::string reg(Reg R) const {
    return HasThis && R == 0 ? "%this" : "%" + std::to_string(R);
  }
  std::string label(int64_t Target) const {
    return "@L" + std::to_string(LabelOf[static_cast<size_t>(Target)]);
  }
  std::string className(int64_t Id) const {
    return P.cls(static_cast<ClassId>(Id)).Name;
  }
  std::string fieldRef(int64_t Id) const {
    const FieldInfo &Fld = P.field(static_cast<FieldId>(Id));
    return P.cls(Fld.Owner).Name + "." + Fld.Name;
  }

  /// The instruction after its "%dst = ".
  void printOperation(const Instruction &I) {
    std::string Op = opcodeName(I.Op);
    switch (I.Op) {
    case Opcode::ConstI:
      Out += Op + " " + std::to_string(I.Imm);
      return;
    case Opcode::ConstF:
      Out += Op + " " + formatDouble(I.FImm);
      return;
    case Opcode::Br:
      Out += Op + " " + label(I.Imm);
      return;
    case Opcode::Cbnz:
    case Opcode::Cbz:
      Out += Op + " " + reg(I.A) + ", " + label(I.Imm);
      return;
    case Opcode::Ret:
      Out += I.A == NoReg ? Op : Op + " " + reg(I.A);
      return;
    case Opcode::New:
      Out += Op + " " + className(I.Imm);
      return;
    case Opcode::NewArray:
      Out += Op + " " + typeName(I.Ty) + ", " + reg(I.A);
      return;
    case Opcode::ALoad:
      Out += Op + " " + typeName(I.Ty) + ", " + reg(I.A) + ", " + reg(I.B);
      return;
    case Opcode::AStore:
      Out += Op + " " + typeName(I.Ty) + ", " + reg(I.A) + ", " + reg(I.B) +
             ", " + reg(I.C);
      return;
    case Opcode::GetField:
      Out += Op + " " + reg(I.A) + ", " + fieldRef(I.Imm);
      return;
    case Opcode::PutField:
      Out += Op + " " + reg(I.A) + ", " + fieldRef(I.Imm) + ", " + reg(I.B);
      return;
    case Opcode::GetStatic:
      Out += Op + " " + fieldRef(I.Imm);
      return;
    case Opcode::PutStatic:
      Out += Op + " " + fieldRef(I.Imm) + ", " + reg(I.A);
      return;
    case Opcode::CallStatic:
    case Opcode::CallVirtual:
    case Opcode::CallSpecial:
    case Opcode::CallInterface: {
      const MethodInfo &M = P.method(static_cast<MethodId>(I.Imm));
      Out += Op + " " + P.cls(M.Owner).Name + "." + M.Name + "(";
      for (size_t J = 0; J < I.Args.size(); ++J)
        Out += (J ? ", " : "") + reg(I.Args[J]);
      Out += ")";
      return;
    }
    case Opcode::InstanceOf:
    case Opcode::CheckCast:
      Out += Op + " " + reg(I.A) + ", " + className(I.Imm);
      return;
    case Opcode::Print:
      Out += (I.Aux ? "printchar " : "print ") + reg(I.A);
      return;
    default:
      // Move, constnull and the binop, compare and unop families.
      Out += Op;
      if (I.A != NoReg)
        Out += " " + reg(I.A);
      if (I.B != NoReg)
        Out += ", " + reg(I.B);
      return;
    }
  }

  const Program &P;
  const IRFunction &F;
  bool HasThis;
  std::string &Out;
  size_t N; ///< instructions
  std::vector<uint32_t> Defs, Uses;
  std::vector<size_t> FirstDef, FirstUse;
  /// Written, after its first definition, by an instruction not a move.
  std::vector<bool> ReboundByOp;
  std::vector<int> LabelOf; ///< per instruction: its label, or -1
  /// Per instruction: the register it prints as writing when the move
  /// after it is folded in, or NoReg.
  std::vector<Reg> Into;
  size_t NextDecl = 0;
};

const char *accessName(Access A) {
  switch (A) {
  case Access::Private:
    return " private";
  case Access::Package:
    return " package_private";
  case Access::Public:
    break;
  }
  return "";
}

void printSignature(const Program &P, const MethodInfo &M,
                    const IRFunction *Body, std::string &Out) {
  Out += M.Flags.IsCtor ? "  ctor " : "  method ";
  Out += M.Name + "(";
  const unsigned First = M.Flags.IsStatic ? 0 : 1;
  for (size_t I = 0; I < M.ParamTys.size(); ++I) {
    Out += I ? ", %" : "%";
    Out += std::to_string(First + I) + ": " + typeName(M.ParamTys[I]);
  }
  Out += ")";
  if (M.RetTy != Type::Void)
    Out += std::string(" -> ") + typeName(M.RetTy);
  if (M.Flags.IsStatic)
    Out += " static";
  if (M.Flags.IsPrivate)
    Out += " private";
  if (!Body) {
    Out += '\n';
    return;
  }
  Out += " {\n";
  BodyPrinter(P, *Body, !M.Flags.IsStatic, Out).print();
  Out += "  }\n";
}

} // namespace

std::string printMethod(const Program &P, MethodId M, const IRFunction &Body) {
  std::string Out;
  printSignature(P, P.method(M), &Body, Out);
  return Out;
}

std::string printProgram(const Program &P) {
  std::string Out;
  for (ClassId Id = 0; Id < P.numClasses(); ++Id) {
    const ClassInfo &C = P.cls(Id);
    Out += (C.IsInterface ? "interface " : "class ") + C.Name;
    if (C.Super != NoClassId)
      Out += " extends " + P.cls(C.Super).Name;
    for (size_t I = 0; I < C.Interfaces.size(); ++I)
      Out += (I ? ", " : " implements ") + P.cls(C.Interfaces[I]).Name;
    if (C.Package)
      Out += " package " + std::to_string(C.Package);
    Out += " {\n";
    for (FieldId F : C.Fields) {
      const FieldInfo &Fld = P.field(F);
      Out += "  field " + Fld.Name + ": " + typeName(Fld.Ty);
      Out += Fld.IsStatic ? " static" : "";
      Out += std::string(accessName(Fld.Acc)) + '\n';
    }
    for (MethodId M : C.Methods) {
      const MethodInfo &MI = P.method(M);
      printSignature(P, MI, MI.HasBody ? &MI.Bytecode : nullptr, Out);
    }
    Out += "}\n";
  }
  return Out;
}

} // namespace dchm
