//===-- compiler/OlcAnalysis.cpp - Object lifetime constants -----------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "analysis/OlcAnalysis.h"

#include <algorithm>
#include <map>

namespace dchm {

namespace {

/// <field, constructor> -> constant value (step 1 tuples).
using CtorTuples = std::map<std::pair<FieldId, MethodId>, Value>;

/// True if field F is assigned anywhere outside constructors.
bool assignedOutsideCtors(const Program &P, FieldId F) {
  for (size_t MIdx = 0; MIdx < P.numMethods(); ++MIdx) {
    const MethodInfo &M = P.method(static_cast<MethodId>(MIdx));
    if (!M.HasBody || M.Flags.IsCtor)
      continue;
    for (const Instruction &I : M.Bytecode.Insts)
      if (I.Op == Opcode::PutField && static_cast<FieldId>(I.Imm) == F)
        return true;
  }
  return false;
}

/// Registers holding (copies of) the value loaded by instruction LoadIdx.
std::vector<bool> refTaint(const IRFunction &F, size_t LoadIdx) {
  std::vector<bool> T(F.RegTypes.size(), false);
  T[F.Insts[LoadIdx].Dst] = true;
  for (size_t I = LoadIdx + 1; I < F.Insts.size(); ++I) {
    const Instruction &Inst = F.Insts[I];
    if (!Inst.hasDst())
      continue;
    if (Inst.Op == Opcode::Move && Inst.A != NoReg && T[Inst.A])
      T[Inst.Dst] = true;
    else if (T[Inst.Dst])
      T[Inst.Dst] = false; // redefined
  }
  return T;
}

/// Escape check for one load of the reference field: the loaded value may
/// only be used as a call receiver, in field loads off it, or in type
/// tests. Conservative over Moves via refTaint.
bool loadEscapes(const IRFunction &F, size_t LoadIdx) {
  std::vector<bool> T = refTaint(F, LoadIdx);
  for (size_t I = LoadIdx + 1; I < F.Insts.size(); ++I) {
    const Instruction &Inst = F.Insts[I];
    auto Tainted = [&](Reg R) { return R != NoReg && R < T.size() && T[R]; };
    switch (Inst.Op) {
    case Opcode::PutField:
    case Opcode::PutStatic:
      // Storing the reference into another field escapes. (PutField's B is
      // the stored value; its A — the base object — is a receiver-like use.)
      if (Inst.Op == Opcode::PutField ? Tainted(Inst.B) : Tainted(Inst.A))
        return true;
      break;
    case Opcode::AStore:
      if (Tainted(Inst.C))
        return true;
      break;
    case Opcode::Ret:
      if (Tainted(Inst.A))
        return true;
      break;
    case Opcode::CallStatic:
      for (Reg R : Inst.Args)
        if (Tainted(R))
          return true;
      break;
    case Opcode::CallVirtual:
    case Opcode::CallSpecial:
    case Opcode::CallInterface:
      // Receiver position (Args[0]) is the intended use; any other argument
      // position escapes.
      for (size_t A = 1; A < Inst.Args.size(); ++A)
        if (Tainted(Inst.Args[A]))
          return true;
      break;
    default:
      break;
    }
  }
  return false;
}

} // namespace

OlcDatabase analyzeObjectLifetimeConstants(const Program &P,
                                           const MutationPlan &Plan) {
  OlcDatabase Db;

  // --- Step 1: ctor-constant tuples for instance fields of mutable classes.
  CtorTuples Tuples;
  for (const MutableClassPlan &CP : Plan.Classes) {
    const ClassInfo &C = P.cls(CP.Cls);
    for (MethodId MId : C.Methods) {
      const MethodInfo &M = P.method(MId);
      if (!M.Flags.IsCtor || !M.HasBody)
        continue;
      // Count assignments per field within this ctor; accept single
      // constant stores to the receiver.
      std::map<FieldId, unsigned> StoreCount;
      for (const Instruction &I : M.Bytecode.Insts)
        if (I.Op == Opcode::PutField)
          StoreCount[static_cast<FieldId>(I.Imm)]++;
      for (const Instruction &I : M.Bytecode.Insts) {
        if (I.Op != Opcode::PutField || I.A != 0)
          continue;
        FieldId F = static_cast<FieldId>(I.Imm);
        const FieldInfo &FI = P.field(F);
        if (FI.IsStatic || FI.Ty == Type::Ref)
          continue;
        if (StoreCount[F] != 1)
          continue;
        std::optional<int64_t> Bits = uniqueConstDefBits(M.Bytecode, I.B);
        if (!Bits)
          continue;
        if (assignedOutsideCtors(P, F))
          continue;
        Tuples[{F, MId}] = valueI(*Bits);
      }
    }
  }
  if (Tuples.empty())
    return Db;

  // --- Step 2: private exact-type reference fields referring to mutable
  // classes.
  for (size_t FIdx = 0; FIdx < P.numFields(); ++FIdx) {
    const FieldInfo &RF = P.field(static_cast<FieldId>(FIdx));
    if (RF.Ty != Type::Ref || RF.IsStatic || RF.Acc != Access::Private)
      continue;

    ClassId TargetCls = NoClassId;
    MethodId TargetCtor = NoMethodId;
    bool Valid = true;
    bool AnyAssign = false;

    for (size_t MIdx = 0; MIdx < P.numMethods() && Valid; ++MIdx) {
      const MethodInfo &M = P.method(static_cast<MethodId>(MIdx));
      if (!M.HasBody)
        continue;
      const IRFunction &F = M.Bytecode;
      for (size_t I = 0; I < F.Insts.size() && Valid; ++I) {
        const Instruction &Inst = F.Insts[I];
        if (Inst.Op != Opcode::PutField ||
            static_cast<FieldId>(Inst.Imm) != RF.Id)
          continue;
        AnyAssign = true;
        // "Always assigned by new using the same constructor."
        std::optional<size_t> Def = uniqueDef(F, Inst.B);
        if (!Def || F.Insts[*Def].Op != Opcode::New) {
          Valid = false;
          break;
        }
        ClassId NewCls = static_cast<ClassId>(F.Insts[*Def].Imm);
        // Find the single constructor call on the freshly built object.
        MethodId Ctor = NoMethodId;
        unsigned CtorCalls = 0;
        for (const Instruction &CI : F.Insts) {
          if (CI.Op != Opcode::CallSpecial || CI.Args.empty() ||
              CI.Args[0] != Inst.B)
            continue;
          const MethodInfo &Callee = P.method(static_cast<MethodId>(CI.Imm));
          if (Callee.Flags.IsCtor && Callee.Owner == NewCls) {
            Ctor = Callee.Id;
            CtorCalls++;
          }
        }
        if (CtorCalls != 1) {
          Valid = false;
          break;
        }
        if (TargetCls == NoClassId) {
          TargetCls = NewCls;
          TargetCtor = Ctor;
        } else if (TargetCls != NewCls || TargetCtor != Ctor) {
          Valid = false;
        }
      }
    }
    if (!Valid || !AnyAssign || TargetCls == NoClassId)
      continue;
    // Paper scope: the target must be a mutable class.
    if (!Plan.planFor(TargetCls))
      continue;

    // Escape-like analysis over every load of the field.
    bool Escapes = false;
    for (size_t MIdx = 0; MIdx < P.numMethods() && !Escapes; ++MIdx) {
      const MethodInfo &M = P.method(static_cast<MethodId>(MIdx));
      if (!M.HasBody)
        continue;
      const IRFunction &F = M.Bytecode;
      for (size_t I = 0; I < F.Insts.size() && !Escapes; ++I)
        if (F.Insts[I].Op == Opcode::GetField &&
            static_cast<FieldId>(F.Insts[I].Imm) == RF.Id)
          Escapes = loadEscapes(F, I);
    }
    if (Escapes)
      continue;

    OlcEntry E;
    E.RefField = RF.Id;
    E.TargetClass = TargetCls;
    E.Ctor = TargetCtor;
    for (auto &[Key, V] : Tuples)
      if (Key.second == TargetCtor)
        E.Constants.push_back({Key.first, V});
    if (!E.Constants.empty())
      Db.Entries.push_back(std::move(E));
  }
  return Db;
}

} // namespace dchm
