//===-- ir/Verifier.cpp - IR structural verifier ---------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include <cstdio>

namespace dchm {

namespace {

/// Accumulates the first verification error.
class Checker {
public:
  explicit Checker(const IRFunction &F) : F(F) {}

  bool failed() const { return !Error.empty(); }
  std::string takeError() { return std::move(Error); }

  void fail(size_t InstIdx, const char *Msg) {
    if (failed())
      return;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s: inst %zu: %s", F.Name.c_str(),
                  InstIdx, Msg);
    Error = Buf;
  }

  /// Checks that R is a valid register of type Ty.
  void reg(size_t I, Reg R, Type Ty, const char *What) {
    if (failed())
      return;
    if (R >= F.RegTypes.size()) {
      fail(I, "register out of range");
      return;
    }
    if (F.RegTypes[R] != Ty) {
      char Buf[128];
      std::snprintf(Buf, sizeof(Buf), "%s: expected %s register, got %s", What,
                    typeName(Ty), typeName(F.RegTypes[R]));
      fail(I, Buf);
    }
  }

  void regAnyType(size_t I, Reg R) {
    if (!failed() && R >= F.RegTypes.size())
      fail(I, "register out of range");
  }

private:
  const IRFunction &F;
  std::string Error;
};

} // namespace

std::string verifyFunction(const IRFunction &F) {
  Checker C(F);
  if (F.Insts.empty())
    return F.Name + ": empty function";
  if (F.NumArgs > F.RegTypes.size())
    return F.Name + ": more args than registers";
  if (!isTerminator(F.Insts.back().Op))
    return F.Name + ": function does not end with a terminator";

  for (size_t I = 0; I < F.Insts.size() && !C.failed(); ++I) {
    const Instruction &Inst = F.Insts[I];
    // Argument registers are immutable by construction.
    if (Inst.hasDst() && Inst.Dst < F.NumArgs)
      C.fail(I, "writes an argument register");

    switch (Inst.Op) {
    case Opcode::ConstI:
      C.reg(I, Inst.Dst, Type::I64, "dst");
      break;
    case Opcode::ConstF:
      C.reg(I, Inst.Dst, Type::F64, "dst");
      break;
    case Opcode::ConstNull:
      C.reg(I, Inst.Dst, Type::Ref, "dst");
      break;
    case Opcode::Move:
      C.regAnyType(I, Inst.Dst);
      C.regAnyType(I, Inst.A);
      if (!C.failed() && F.RegTypes[Inst.Dst] != F.RegTypes[Inst.A])
        C.fail(I, "move between different types");
      break;
    case Opcode::Br:
      if (static_cast<size_t>(Inst.Imm) >= F.Insts.size())
        C.fail(I, "branch target out of range");
      break;
    case Opcode::Cbnz:
    case Opcode::Cbz:
      C.reg(I, Inst.A, Type::I64, "cond");
      if (static_cast<size_t>(Inst.Imm) >= F.Insts.size())
        C.fail(I, "branch target out of range");
      break;
    case Opcode::Ret:
      if (F.RetTy == Type::Void) {
        if (Inst.A != NoReg)
          C.fail(I, "value return from void function");
      } else {
        C.reg(I, Inst.A, F.RetTy, "return value");
      }
      break;
    case Opcode::New:
      C.reg(I, Inst.Dst, Type::Ref, "dst");
      break;
    case Opcode::NewArray:
      C.reg(I, Inst.Dst, Type::Ref, "dst");
      C.reg(I, Inst.A, Type::I64, "length");
      if (Inst.Ty == Type::Void)
        C.fail(I, "array of void");
      break;
    case Opcode::ALoad:
      C.reg(I, Inst.Dst, Inst.Ty, "dst");
      C.reg(I, Inst.A, Type::Ref, "array");
      C.reg(I, Inst.B, Type::I64, "index");
      break;
    case Opcode::AStore:
      C.reg(I, Inst.A, Type::Ref, "array");
      C.reg(I, Inst.B, Type::I64, "index");
      C.reg(I, Inst.C, Inst.Ty, "value");
      break;
    case Opcode::ALen:
      C.reg(I, Inst.Dst, Type::I64, "dst");
      C.reg(I, Inst.A, Type::Ref, "array");
      break;
    case Opcode::GetField:
      C.reg(I, Inst.Dst, Inst.Ty, "dst");
      C.reg(I, Inst.A, Type::Ref, "object");
      break;
    case Opcode::PutField:
      C.reg(I, Inst.A, Type::Ref, "object");
      C.regAnyType(I, Inst.B);
      break;
    case Opcode::GetStatic:
      C.reg(I, Inst.Dst, Inst.Ty, "dst");
      break;
    case Opcode::PutStatic:
      C.regAnyType(I, Inst.A);
      break;
    case Opcode::CallStatic:
    case Opcode::CallVirtual:
    case Opcode::CallSpecial:
    case Opcode::CallInterface:
      if (Inst.Ty != Type::Void)
        C.reg(I, Inst.Dst, Inst.Ty, "dst");
      else if (Inst.Dst != NoReg)
        C.fail(I, "void call with destination");
      for (Reg R : Inst.Args)
        C.regAnyType(I, R);
      if (Inst.Op != Opcode::CallStatic && !Inst.Args.empty() && !C.failed() &&
          F.RegTypes[Inst.Args[0]] != Type::Ref)
        C.fail(I, "instance call receiver must be a reference");
      break;
    case Opcode::InstanceOf:
      C.reg(I, Inst.Dst, Type::I64, "dst");
      C.reg(I, Inst.A, Type::Ref, "object");
      break;
    case Opcode::CheckCast:
      C.reg(I, Inst.A, Type::Ref, "object");
      break;
    case Opcode::Print:
      C.regAnyType(I, Inst.A);
      break;
    default: {
      // Binops, compares and unops: the opcode table's types.
      const OpcodeInfo &Info = opcodeInfo(Inst.Op);
      C.reg(I, Inst.Dst, Info.Result, "dst");
      C.reg(I, Inst.A, Info.Operand, "a");
      if (Info.Family != OpFamily::Unop)
        C.reg(I, Inst.B, Info.Operand, "b");
      break;
    }
    }
  }
  return C.takeError();
}

} // namespace dchm
