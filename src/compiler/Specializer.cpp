//===-- compiler/Specializer.cpp - State-field specialization ---------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "compiler/Specializer.h"

#include "support/Debug.h"

namespace dchm {

namespace {

/// Looks up the value bound to field FId in state StateIdx, if any.
/// Static fields match unconditionally; instance fields require ReceiverOk.
bool lookupBinding(const MutableClassPlan &Plan, size_t StateIdx, FieldId FId,
                   bool ReceiverOk, Value &Out) {
  const HotState &HS = Plan.HotStates[StateIdx];
  for (size_t I = 0; I < Plan.InstanceStateFields.size(); ++I) {
    if (Plan.InstanceStateFields[I] == FId) {
      if (!ReceiverOk)
        return false;
      Out = HS.InstanceVals[I];
      return true;
    }
  }
  for (size_t I = 0; I < Plan.StaticStateFields.size(); ++I) {
    if (Plan.StaticStateFields[I] == FId) {
      Out = HS.StaticVals[I];
      return true;
    }
  }
  return false;
}

bool isStateFieldRead(const Instruction &I) {
  return I.Op == Opcode::GetField || I.Op == Opcode::GetStatic;
}

/// True when a GetField reads off the receiver (IRFunction::HasReceiver).
bool readsReceiver(const Instruction &I, const IRFunction &F) {
  if (I.Op != Opcode::GetField)
    return true; // GetStatic: receiver irrelevant
  return F.HasReceiver && I.A == 0;
}

} // namespace

unsigned specializeForState(IRFunction &F, const MutableClassPlan &Plan,
                            size_t StateIdx) {
  DCHM_CHECK(StateIdx < Plan.HotStates.size(), "bad hot state index");
  unsigned Folded = 0;
  for (Instruction &I : F.Insts) {
    if (!isStateFieldRead(I))
      continue;
    FieldId FId = static_cast<FieldId>(I.Imm);
    Value V;
    if (!lookupBinding(Plan, StateIdx, FId, readsReceiver(I, F), V))
      continue;
    DCHM_CHECK(I.Ty == Type::I64 || I.Ty == Type::F64,
               "state fields must be primitive");
    Reg Dst = I.Dst;
    Type Ty = I.Ty;
    I = Instruction{};
    I.Dst = Dst;
    I.Ty = Ty;
    if (Ty == Type::I64) {
      I.Op = Opcode::ConstI;
      I.Imm = V.I;
    } else {
      I.Op = Opcode::ConstF;
      I.FImm = V.F;
    }
    ++Folded;
  }
  return Folded;
}

unsigned countSpecializableReads(const IRFunction &F,
                                 const MutableClassPlan &Plan) {
  if (Plan.HotStates.empty())
    return 0;
  unsigned Count = 0;
  for (const Instruction &I : F.Insts) {
    if (!isStateFieldRead(I))
      continue;
    Value V;
    if (lookupBinding(Plan, 0, static_cast<FieldId>(I.Imm),
                      readsReceiver(I, F), V))
      ++Count;
  }
  return Count;
}

} // namespace dchm
