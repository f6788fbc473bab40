//===-- mutation/MutationManager.cpp - Dynamic class mutation ----------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "mutation/MutationManager.h"

#include "runtime/CostModel.h"
#include "support/Debug.h"

#include <algorithm>

namespace dchm {

void MutationManager::installPlan(const MutationPlan &Plan) {
  // Mutation is monotone: a Program carries at most one plan for its
  // lifetime, installed at startup or mid-run and never taken back.
  DCHM_CHECK(!P.mutationPlan(), "mutation plan installed twice");
  DCHM_CHECK(P.isLinked(), "install plan after linking");
  P.setMutationPlan(&Plan);

  for (size_t Idx = 0; Idx < Plan.Classes.size(); ++Idx) {
    const MutableClassPlan &CP = Plan.Classes[Idx];
    ClassInfo &C = P.cls(CP.Cls);
    DCHM_CHECK(C.MutableIndex < 0, "class appears twice in the plan");
    C.MutableIndex = static_cast<int>(Idx);

    for (FieldId F : CP.InstanceStateFields) {
      DCHM_CHECK(!P.field(F).IsStatic, "instance state field is static");
      P.field(F).IsStateField = true;
    }
    for (FieldId F : CP.StaticStateFields) {
      DCHM_CHECK(P.field(F).IsStatic, "static state field is not static");
      P.field(F).IsStateField = true;
    }
    for (MethodId M : CP.MutableMethods) {
      DCHM_CHECK(P.method(M).Owner == CP.Cls,
                 "mutable method not declared by the mutable class");
      P.method(M).IsMutable = true;
    }
    for (const HotState &HS : CP.HotStates) {
      DCHM_CHECK(HS.InstanceVals.size() == CP.InstanceStateFields.size(),
                 "hot state instance tuple size mismatch");
      DCHM_CHECK(HS.StaticVals.size() == CP.StaticStateFields.size(),
                 "hot state static tuple size mismatch");
    }

    // "For mutable classes that are dependent on instance fields, a number
    // of special TIBs are created", one per hot state. Classes depending
    // only on static fields specialize the class TIB itself and need none.
    if (CP.dependsOnInstanceFields())
      for (size_t S = 0; S < CP.HotStates.size(); ++S)
        P.createSpecialTib(CP.Cls, static_cast<int>(S));

    // Interface dispatch support (paper section 3.2.3): single-method IMT
    // slots of a mutable class hold a TIB offset instead of a direct code
    // pointer, so the dispatch goes through the object's current TIB. All
    // special TIBs share the class's IMT.
    if (C.Imt) {
      for (ImtEntry &E : C.Imt->Slots) {
        if (E.K != ImtEntry::Kind::Direct)
          continue;
        E.K = ImtEntry::Kind::TibOffset;
        E.VSlot = P.method(E.DirectImpl).VSlot;
        E.DirectCode = nullptr;
      }
    }
  }
}

int MutationManager::matchInstanceState(const MutableClassPlan &CP,
                                        Object *O) {
  Stats.ExtraCycles += DispatchCost::StateFieldPatchPerField *
                       CP.InstanceStateFields.size();
  for (size_t S = 0; S < CP.HotStates.size(); ++S) {
    const HotState &HS = CP.HotStates[S];
    bool Match = true;
    for (size_t F = 0; F < CP.InstanceStateFields.size(); ++F) {
      const FieldInfo &Fld = P.field(CP.InstanceStateFields[F]);
      if (O->get(Fld.Slot).I != HS.InstanceVals[F].I) {
        Match = false;
        break;
      }
    }
    if (Match)
      return static_cast<int>(S);
  }
  return -1;
}

bool MutationManager::staticPartMatches(const MutableClassPlan &CP,
                                        size_t S) const {
  // "There are no static state fields affecting the hot state of the
  // mutable class and we assume this is a default match."
  const HotState &HS = CP.HotStates[S];
  for (size_t F = 0; F < CP.StaticStateFields.size(); ++F) {
    const FieldInfo &Fld = P.field(CP.StaticStateFields[F]);
    if (P.getStaticSlot(Fld.Slot).I != HS.StaticVals[F].I)
      return false;
  }
  return true;
}

int MutationManager::anyStaticMatch(const MutableClassPlan &CP) const {
  for (size_t S = 0; S < CP.HotStates.size(); ++S)
    if (staticPartMatches(CP, S))
      return static_cast<int>(S);
  return -1;
}

void MutationManager::swingObjectTib(Object *O, TIB *To) {
  if (Debug.SkipTibSwing)
    return; // injected fault: leave the stale TIB for the auditor to find
  if (O->tib() == To)
    return;
  O->setTib(To);
  Stats.ObjectTibSwings++;
  Stats.ExtraCycles += DispatchCost::PointerSwing;
}

void MutationManager::updateCodePointer(CompiledMethod *&SlotRef,
                                        CompiledMethod *To) {
  if (Debug.SkipCodePointerUpdate)
    return; // injected fault: leave the stale code pointer in place
  if (SlotRef == To)
    return;
  SlotRef = To;
  Stats.CodePointerUpdates++;
  Stats.ExtraCycles += DispatchCost::PointerSwing;
}

CompiledMethod *&MutationManager::homeSlot(MethodInfo &M) {
  return M.Flags.IsStatic ? P.staticEntrySlot(M.Id)
                          : P.cls(M.Owner).ClassTib->Slots[M.VSlot];
}

const MutableClassPlan *
MutationManager::instancePlanOf(const Object *O) const {
  // The object's *actual* class decides mutability: only instances of the
  // mutable class itself mutate (special code never propagates to
  // subclasses; Figure 6).
  const ClassInfo *C = O->tib()->Cls;
  if (C->MutableIndex < 0)
    return nullptr;
  const MutableClassPlan &CP = P.mutationPlan()->Classes[C->MutableIndex];
  return CP.dependsOnInstanceFields() ? &CP : nullptr;
}

bool MutationManager::reclassify(Object *O, const MutableClassPlan &CP,
                                 bool CountMiss) {
  ClassInfo &C = *O->tib()->Cls;
  TIB *To = C.ClassTib;
  int S = matchInstanceState(CP, O);
  if (S >= 0) {
    Stats.StateMatches++;
    To = C.SpecialTibs[static_cast<size_t>(S)];
  } else if (CountMiss) {
    Stats.StateMisses++;
  }
  swingObjectTib(O, To);
  return To != C.ClassTib;
}

void MutationManager::onInstanceStateStore(Object *O, FieldInfo &F) {
  const MutableClassPlan *CP = instancePlanOf(O);
  if (!CP || std::find(CP->InstanceStateFields.begin(),
                       CP->InstanceStateFields.end(),
                       F.Id) == CP->InstanceStateFields.end())
    return;
  reclassify(O, *CP, /*CountMiss=*/true);
  noteTransition("part I: instance state store");
}

void MutationManager::onConstructorExit(Object *O, MethodInfo &) {
  // "At the end of the constructors for a mutable class: if the object's
  // state is dependent on any instance field..." (Figure 4).
  const MutableClassPlan *CP = O ? instancePlanOf(O) : nullptr;
  if (!CP)
    return;
  Stats.ExtraCycles += DispatchCost::StateFieldPatchBase;
  reclassify(O, *CP, /*CountMiss=*/true);
  noteTransition("part I: constructor exit");
}

uint64_t MutationManager::migrateExistingObjects() {
  DCHM_CHECK(P.mutationPlan(), "migrate without a plan");
  uint64_t Migrated = 0;
  H.forEachObject([&](Object *O) {
    if (O->isArray() || O->tib()->isSpecial())
      return;
    // A miss leaves the object where it is, on its class TIB, and is not
    // counted: no state field was stored.
    if (const MutableClassPlan *CP = instancePlanOf(O))
      Migrated += reclassify(O, *CP, /*CountMiss=*/false);
  });
  noteTransition("online: object migration");
  return Migrated;
}

void MutationManager::refreshMethodPointers(const MutableClassPlan &CP,
                                            MethodInfo &M) {
  if (M.Specials.empty())
    return; // not yet opt2-compiled; nothing to route
  auto CodeFor = [&](int S) {
    return S >= 0 ? M.Specials[static_cast<size_t>(S)] : M.General;
  };

  // A static method (its pointer lives in the JTOC; it can only read static
  // fields) and a method of a static-only mutable class (the class TIB
  // itself is specialized; also how private instance methods mutate, since
  // invokespecial binds through the declaring class TIB) have one pointer,
  // routed by whichever hot state the static fields match.
  if (M.Flags.IsStatic || !CP.dependsOnInstanceFields()) {
    updateCodePointer(homeSlot(M), CodeFor(anyStaticMatch(CP)));
    return;
  }

  // Each special TIB holds special code iff the static part of its hot
  // state matches the current static field values; otherwise it must hold
  // the general code. The class TIB always holds general code.
  ClassInfo &C = P.cls(CP.Cls);
  for (size_t S = 0; S < CP.HotStates.size(); ++S)
    updateCodePointer(C.SpecialTibs[S]->Slots[M.VSlot],
                      CodeFor(staticPartMatches(CP, S) ? static_cast<int>(S)
                                                       : -1));
  updateCodePointer(homeSlot(M), M.General);
}

void MutationManager::onStaticStateStore(FieldInfo &F) {
  const MutationPlan *Plan = P.mutationPlan();
  if (!Plan)
    return;
  // "For each assignment of a static state field: foreach mutable classes
  // whose states are dependent on this static field ..." (Figure 4).
  for (const MutableClassPlan &CP : Plan->Classes) {
    if (std::find(CP.StaticStateFields.begin(), CP.StaticStateFields.end(),
                  F.Id) == CP.StaticStateFields.end())
      continue;
    Stats.ExtraCycles +=
        DispatchCost::StateFieldPatchPerField * CP.StaticStateFields.size();
    if (anyStaticMatch(CP) >= 0)
      Stats.StateMatches++;
    else
      Stats.StateMisses++;
    for (MethodId MId : CP.MutableMethods)
      refreshMethodPointers(CP, P.method(MId));
  }
  noteTransition("part I: static state store");
}

void MutationManager::onMutableMethodRecompiled(MethodInfo &M) {
  const MutationPlan *Plan = P.mutationPlan();
  DCHM_CHECK(Plan, "recompile notification without a plan");
  const MutableClassPlan *CP = Plan->planFor(M.Owner);
  DCHM_CHECK(CP, "mutable method without a class plan");
  // The installer already placed the new general code in the class TIB, the
  // special TIBs, and non-overriding subclasses (general code only — "the
  // general compiled code instead of the special compiled code is
  // propagated to the sub classes"). Route the special code per Figure 5.
  refreshMethodPointers(*CP, M);
  noteTransition("part II: mutable method recompiled");
}

} // namespace dchm
