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
  DCHM_CHECK(!Installed, "mutation plan installed twice");
  DCHM_CHECK(P.isLinked(), "install plan after linking");
  Installed = &Plan;
  SwingIns.clear();
  SwingIns.resize(Plan.Classes.size());

  for (size_t Idx = 0; Idx < Plan.Classes.size(); ++Idx) {
    const MutableClassPlan &CP = Plan.Classes[Idx];
    ClassInfo &C = P.cls(CP.Cls);
    DCHM_CHECK(C.MutableIndex < 0, "class appears twice in the plan");
    C.MutableIndex = static_cast<int>(Idx);
    SwingIns[Idx] = std::vector<std::atomic<uint64_t>>(CP.HotStates.size());

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

  // The IMT rewiring above (and the special-TIB creation) wrote dispatch
  // structures. (The caller enforces the code budget after existing objects
  // migrate, so audit hooks never observe a half-installed heap.)
  P.bumpCodeEpoch();
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
  if (O->Tib == To)
    return;
  O->Tib = To;
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
  // A TIB slot now routes differently (general <-> special code).
  P.bumpCodeEpoch();
}

void MutationManager::onInstanceStateStore(Object *O, FieldInfo &F) {
  // The receiver's *actual* class decides mutability: only instances of the
  // mutable class itself mutate (special code never propagates to
  // subclasses; Figure 6).
  ClassInfo *C = O->Tib->Cls;
  if (C->MutableIndex < 0)
    return;
  const MutableClassPlan &CP = Installed->Classes[C->MutableIndex];
  if (!CP.dependsOnInstanceFields())
    return;
  if (std::find(CP.InstanceStateFields.begin(), CP.InstanceStateFields.end(),
                F.Id) == CP.InstanceStateFields.end())
    return;
  int S = matchInstanceState(CP, O);
  if (S >= 0) {
    Stats.StateMatches++;
    SwingIns[static_cast<size_t>(C->MutableIndex)][static_cast<size_t>(S)]++;
    // A null slot means this hot state was evicted under code-budget
    // pressure; the class TIB (general code) is its resting place.
    TIB *To = C->SpecialTibs[static_cast<size_t>(S)];
    swingObjectTib(O, To ? To : C->ClassTib);
  } else {
    Stats.StateMisses++;
    swingObjectTib(O, C->ClassTib);
  }
  noteTransition("part I: instance state store");
}

void MutationManager::onConstructorExit(Object *O, MethodInfo &Ctor) {
  if (!Installed || !O)
    return;
  ClassInfo *C = O->Tib->Cls;
  if (C->MutableIndex < 0)
    return;
  const MutableClassPlan &CP = Installed->Classes[C->MutableIndex];
  // "At the end of the constructors for a mutable class: if the object's
  // state is dependent on any instance field..." (Figure 4).
  if (!CP.dependsOnInstanceFields())
    return;
  Stats.ExtraCycles += DispatchCost::StateFieldPatchBase;
  int S = matchInstanceState(CP, O);
  if (S >= 0) {
    Stats.StateMatches++;
    SwingIns[static_cast<size_t>(C->MutableIndex)][static_cast<size_t>(S)]++;
    TIB *To = C->SpecialTibs[static_cast<size_t>(S)];
    swingObjectTib(O, To ? To : C->ClassTib);
  } else {
    Stats.StateMisses++;
    swingObjectTib(O, C->ClassTib);
  }
  noteTransition("part I: constructor exit");
}

uint64_t MutationManager::migrateExistingObjects(Heap &H) {
  DCHM_CHECK(Installed, "migrate without a plan");
  uint64_t Migrated = 0;
  H.forEachObject([&](Object *O) {
    if (O->IsArray || !O->Tib)
      return;
    ClassInfo *C = O->Tib->Cls;
    if (C->MutableIndex < 0 || O->Tib->isSpecial())
      return;
    const MutableClassPlan &CP = Installed->Classes[C->MutableIndex];
    if (!CP.dependsOnInstanceFields())
      return;
    int S = matchInstanceState(CP, O);
    if (S >= 0) {
      Stats.StateMatches++;
      SwingIns[static_cast<size_t>(C->MutableIndex)][static_cast<size_t>(S)]++;
      if (TIB *To = C->SpecialTibs[static_cast<size_t>(S)]) {
        swingObjectTib(O, To);
        ++Migrated;
      }
    }
  });
  noteTransition("online: object migration");
  return Migrated;
}

void MutationManager::refreshMethodPointers(const MutableClassPlan &CP,
                                            MethodInfo &M) {
  ClassInfo &C = P.cls(CP.Cls);
  if (M.Specials.empty())
    return; // not yet opt2-compiled; nothing to route

  if (M.Flags.IsStatic) {
    // Static methods can only use static fields; their pointer lives in the
    // JTOC.
    int S = anyStaticMatch(CP);
    CompiledMethod *Want =
        (S >= 0 && M.Specials[static_cast<size_t>(S)])
            ? M.Specials[static_cast<size_t>(S)]
            : M.General;
    CompiledMethod *Cur = P.staticEntry(M.Id);
    if (Debug.SkipCodePointerUpdate)
      return; // injected fault: leave the stale JTOC entry in place
    if (Cur != Want) {
      P.setStaticEntry(M.Id, Want);
      Stats.CodePointerUpdates++;
      Stats.ExtraCycles += DispatchCost::PointerSwing;
    }
    return;
  }

  if (CP.dependsOnInstanceFields()) {
    // Each special TIB holds special code iff the static part of its hot
    // state matches the current static field values; otherwise it must hold
    // the general code. The class TIB always holds general code.
    for (size_t S = 0; S < CP.HotStates.size(); ++S) {
      TIB *ST = C.SpecialTibs[S];
      if (!ST)
        continue; // evicted hot state: no TIB left to route code into
      CompiledMethod *Want = (staticPartMatches(CP, S) && M.Specials[S])
                                 ? M.Specials[S]
                                 : M.General;
      updateCodePointer(ST->Slots[M.VSlot], Want);
    }
    updateCodePointer(C.ClassTib->Slots[M.VSlot], M.General);
    return;
  }

  // Static-only mutable class: the class TIB itself is specialized. This is
  // also how private instance methods get mutated (invokespecial binds
  // through the declaring class TIB).
  int S = anyStaticMatch(CP);
  CompiledMethod *Want = (S >= 0 && M.Specials[static_cast<size_t>(S)])
                             ? M.Specials[static_cast<size_t>(S)]
                             : M.General;
  updateCodePointer(C.ClassTib->Slots[M.VSlot], Want);
}

void MutationManager::onStaticStateStore(FieldInfo &F) {
  if (!Installed)
    return;
  // "For each assignment of a static state field: foreach mutable classes
  // whose states are dependent on this static field ..." (Figure 4).
  for (const MutableClassPlan &CP : Installed->Classes) {
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
  DCHM_CHECK(Installed, "recompile notification without a plan");
  const MutableClassPlan *CP = Installed->planFor(M.Owner);
  DCHM_CHECK(CP, "mutable method without a class plan");
  // The installer already placed the new general code in the class TIB, the
  // special TIBs, and non-overriding subclasses (general code only — "the
  // general compiled code instead of the special compiled code is
  // propagated to the sub classes"). Route the special code per Figure 5.
  refreshMethodPointers(*CP, M);
  noteTransition("part II: mutable method recompiled");
  // Fresh specialized bodies grew the footprint; demote cold states if that
  // pushed us over the code budget.
  enforceBudget();
}

uint64_t MutationManager::retirePlan(Heap &H) {
  DCHM_CHECK(Installed, "retirePlan without an installed plan");

  // Stop-the-world phase 1: swing every object sitting on a special TIB
  // back to its class TIB, so no dispatch can reach a retired structure.
  uint64_t OnSpecial = 0;
  H.forEachObject([&](Object *O) {
    if (O->IsArray || !O->Tib || !O->Tib->isSpecial())
      return;
    ++OnSpecial;
    if (Debug.SkipRetireSwing)
      return; // injected fault: strand the object on its retired TIB
    swingObjectTib(O, O->Tib->Cls->ClassTib);
  });

  // Phase 2: restore every dispatch structure to its pre-install shape.
  for (const MutableClassPlan &CP : Installed->Classes) {
    ClassInfo &C = P.cls(CP.Cls);
    for (MethodId MId : CP.MutableMethods) {
      MethodInfo &M = P.method(MId);
      if (M.Flags.IsStatic) {
        if (M.General && P.staticEntry(M.Id) != M.General &&
            !Debug.SkipCodePointerUpdate) {
          P.setStaticEntry(M.Id, M.General);
          Stats.CodePointerUpdates++;
          Stats.ExtraCycles += DispatchCost::PointerSwing;
        }
      } else if (!CP.dependsOnInstanceFields()) {
        // Static-only classes specialize the class TIB itself; put the
        // general code back.
        if (M.General)
          updateCodePointer(C.ClassTib->Slots[M.VSlot], M.General);
      }
      for (CompiledMethod *SP : M.Specials)
        if (SP) {
          SP->invalidate();
          P.retireCompiledBody(SP);
        }
      M.Specials.clear();
      M.IsMutable = false;
    }

    // Un-rewire the IMT: TibOffset entries go back to Direct, rebound to
    // the class TIB's (general) code — null when not yet compiled, exactly
    // the lazy pre-install state. Not charged as a code-pointer update:
    // installPlan's symmetric rewiring is uncharged structural work too, so
    // an install/retire/re-install prologue round trip stays cycle-exact.
    if (C.Imt)
      for (ImtEntry &E : C.Imt->Slots)
        if (E.K == ImtEntry::Kind::TibOffset) {
          E.K = ImtEntry::Kind::Direct;
          E.DirectCode = C.ClassTib->Slots[E.VSlot];
        }

    for (TIB *ST : C.SpecialTibs)
      if (ST)
        P.retireSpecialTib(ST);
    C.SpecialTibs.clear();

    for (FieldId F : CP.InstanceStateFields)
      P.field(F).IsStateField = false;
    for (FieldId F : CP.StaticStateFields)
      P.field(F).IsStateField = false;
    C.MutableIndex = -1;
  }

  Installed = nullptr;
  SwingIns.clear();
  Stats.PlanRetirements++;
  // Every dispatch structure above changed shape; moving the epoch past the
  // stamps of the TIBs and bodies retired above is what lets the
  // reclamation drain free them.
  P.bumpCodeEpoch();
  noteTransition("retire: plan retired");
  return OnSpecial;
}

bool MutationManager::evictState(size_t Idx, size_t S) {
  const MutableClassPlan &CP = Installed->Classes[Idx];
  if (!CP.dependsOnInstanceFields())
    return false; // static-only classes own no special TIBs to demote
  ClassInfo &C = P.cls(CP.Cls);
  TIB *ST = C.SpecialTibs[S];
  if (!ST)
    return false; // already evicted
  // Swing residents home to the class TIB (general code) before the TIB
  // goes on the reclamation list, so it is unreachable from the heap.
  if (TheHeap)
    TheHeap->forEachObject([&](Object *O) {
      if (!O->IsArray && O->Tib == ST)
        swingObjectTib(O, C.ClassTib);
    });
  // Null the slot first (vector size is preserved so state indices stay
  // stable); refreshMethodPointers then skips this state.
  C.SpecialTibs[S] = nullptr;
  for (MethodId MId : CP.MutableMethods) {
    MethodInfo &M = P.method(MId);
    if (S >= M.Specials.size() || !M.Specials[S])
      continue;
    CompiledMethod *SP = M.Specials[S];
    M.Specials[S] = nullptr;
    SP->invalidate();
    P.retireCompiledBody(SP);
    // Re-route: a static method's JTOC entry may have pointed at the body
    // we just dropped.
    refreshMethodPointers(CP, M);
  }
  P.retireSpecialTib(ST);
  P.bumpCodeEpoch();
  Stats.StateEvictions++;
  noteTransition("degrade: state evicted");
  return true;
}

size_t MutationManager::specialFootprintBytes() const {
  if (!Installed)
    return 0;
  size_t Bytes = 0;
  for (const MutableClassPlan &CP : Installed->Classes) {
    const ClassInfo &C = P.cls(CP.Cls);
    for (const TIB *ST : C.SpecialTibs)
      if (ST)
        Bytes += ST->sizeBytes();
    for (MethodId MId : CP.MutableMethods)
      for (const CompiledMethod *SP : P.method(MId).Specials)
        if (SP)
          Bytes += SP->budgetBytes();
  }
  return Bytes;
}

uint64_t MutationManager::enforceBudget() {
  if (!CodeBudgetBytes || !Installed)
    return 0;
  uint64_t Evicted = 0;
  while (specialFootprintBytes() > CodeBudgetBytes) {
    if (!evictColdestState())
      break; // nothing left to demote; the remainder is irreducible
    ++Evicted;
  }
  return Evicted;
}

bool MutationManager::evictColdestState() {
  if (!Installed)
    return false;
  // Benefit-ranked: the state with the fewest part I swing-ins bought the
  // least specialization benefit. First-wins tie-break keeps the choice
  // deterministic across hosts (SwingIns is simulated data).
  size_t BestIdx = 0, BestS = 0;
  uint64_t BestCount = 0;
  bool Found = false;
  for (size_t Idx = 0; Idx < Installed->Classes.size(); ++Idx) {
    const MutableClassPlan &CP = Installed->Classes[Idx];
    if (!CP.dependsOnInstanceFields())
      continue;
    const ClassInfo &C = P.cls(CP.Cls);
    for (size_t S = 0; S < C.SpecialTibs.size(); ++S) {
      if (!C.SpecialTibs[S])
        continue;
      uint64_t N = SwingIns[Idx][S];
      if (!Found || N < BestCount) {
        Found = true;
        BestIdx = Idx;
        BestS = S;
        BestCount = N;
      }
    }
  }
  return Found && evictState(BestIdx, BestS);
}

} // namespace dchm
