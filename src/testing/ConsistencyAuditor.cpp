//===-- testing/ConsistencyAuditor.cpp - Runtime invariant audits -------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "testing/ConsistencyAuditor.h"

#include <algorithm>

namespace dchm {

void ConsistencyAuditor::addViolation(const char *Check,
                                      const std::string &Detail) {
  ++TotalViolations;
  if (Recorded.size() < MaxRecorded)
    Recorded.push_back({Check, Detail, CurTrigger});
}

bool ConsistencyAuditor::staticPartMatches(const MutableClassPlan &CP,
                                           size_t S) const {
  const Program &P = VM.program();
  const HotState &HS = CP.HotStates[S];
  for (size_t F = 0; F < CP.StaticStateFields.size(); ++F) {
    const FieldInfo &Fld = P.field(CP.StaticStateFields[F]);
    if (P.getStaticSlot(Fld.Slot).I != HS.StaticVals[F].I)
      return false;
  }
  return true;
}

int ConsistencyAuditor::anyStaticMatch(const MutableClassPlan &CP) const {
  for (size_t S = 0; S < CP.HotStates.size(); ++S)
    if (staticPartMatches(CP, S))
      return static_cast<int>(S);
  return -1;
}

int ConsistencyAuditor::matchInstanceState(const MutableClassPlan &CP,
                                           const Object *O) const {
  const Program &P = VM.program();
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

CompiledMethod *
ConsistencyAuditor::expectedMutableCode(const MutableClassPlan &CP,
                                        const MethodInfo &M, int S) const {
  if (M.Specials.empty())
    return M.General; // not yet opt2-compiled; only general code exists
  if (S >= 0)
    return staticPartMatches(CP, static_cast<size_t>(S))
               ? M.Specials[static_cast<size_t>(S)]
               : M.General;
  int A = anyStaticMatch(CP);
  return A >= 0 ? M.Specials[static_cast<size_t>(A)] : M.General;
}

void ConsistencyAuditor::auditNow(const char *Trigger) {
  // The walk reads the heap, every interpreter's frames, and the dispatch
  // structures, so it must not race with other mutators. atSafepoint is a
  // plain call at N=1 and re-entrant from inside an open rendezvous, so
  // transition audits fired within a mutation closure run inline.
  VM.atSafepoint([&] { auditStopped(Trigger); });
}

void ConsistencyAuditor::auditStopped(const char *Trigger) {
  Audits.fetch_add(1, std::memory_order_relaxed);
  CurTrigger = Trigger;

  // Objects whose constructor frames are still live are exempt from the
  // strict TIB-matches-state check: an inner constructor in a callspecial
  // chain exits (and stamps CtorDone) while the outer one is still filling
  // in fields. Every mutator context can hold such frames.
  std::vector<Object *> UnderCtor;
  for (unsigned T = 0; T < VM.mutatorThreads(); ++T)
    VM.interp(T).collectActiveCtorReceivers(UnderCtor);

  auditHeap(UnderCtor);
  auditTibs();
  auditJtoc();
  auditImts();
  auditSpecials();
}

void ConsistencyAuditor::auditHeap(const std::vector<Object *> &UnderCtor) {
  const MutationPlan *Plan = VM.program().mutationPlan();
  VM.heap().forEachObject([&](Object *O) {
    if (O->isArray())
      return;
    TIB *T = O->tib();
    if (!T) {
      addViolation("heap.tib-null", "non-array object with null TIB");
      return;
    }
    ClassInfo *C = T->Cls;
    // Membership: the TIB must be the class TIB or one of its special TIBs.
    if (T != C->ClassTib &&
        std::find(C->SpecialTibs.begin(), C->SpecialTibs.end(), T) ==
            C->SpecialTibs.end()) {
      addViolation("heap.tib-foreign",
                   "object of " + C->Name + " on a TIB the class does not own");
      return;
    }
    if (C->MutableIndex < 0 || !Plan) {
      if (T->isSpecial())
        addViolation("heap.special-non-mutable",
                     "object of non-mutable " + C->Name + " on a special TIB");
      return;
    }
    const MutableClassPlan &CP = Plan->Classes[C->MutableIndex];
    if (!CP.dependsOnInstanceFields()) {
      if (T->isSpecial())
        addViolation("heap.special-static-only",
                     "object of static-only mutable " + C->Name +
                         " on a special TIB");
      return;
    }
    int S = matchInstanceState(CP, O);
    TIB *Expected =
        S >= 0 ? C->SpecialTibs[static_cast<size_t>(S)] : C->ClassTib;
    if (std::find(UnderCtor.begin(), UnderCtor.end(), O) != UnderCtor.end())
      return; // constructor still running; part I has not classified it yet
    if (!O->ctorDone()) {
      // Unclassified object: class TIB is the normal resting place, but an
      // online migration pass may already have swung it to its match.
      if (T != C->ClassTib && T != Expected)
        addViolation("heap.preclass-tib",
                     "unclassified object of " + C->Name +
                         " on a TIB matching neither class nor state");
      return;
    }
    if (T != Expected)
      addViolation(
          "heap.tib-state",
          "object of " + C->Name + " on " +
              (T->isSpecial()
                   ? "special TIB " + std::to_string(T->StateIndex)
                   : std::string("class TIB")) +
              " but state matches " +
              (S >= 0 ? "hot state " + std::to_string(S)
                      : std::string("no hot state")));
  });
}

void ConsistencyAuditor::auditTibs() {
  Program &P = VM.program();
  const MutationPlan *Plan = VM.program().mutationPlan();
  for (size_t CId = 0; CId < P.numClasses(); ++CId) {
    ClassInfo &C = P.cls(static_cast<ClassId>(CId));
    if (C.IsInterface || !C.ClassTib)
      continue;
    const MutableClassPlan *CP =
        (Plan && C.MutableIndex >= 0) ? &Plan->Classes[C.MutableIndex]
                                      : nullptr;
    for (size_t I = 0; I < C.VTable.size(); ++I) {
      const MethodInfo &M = P.method(C.VTable[I]);
      // Inherited private/ctor slots are dead: invokespecial binds through
      // the *declaring* class TIB, so the installer never writes them.
      if (!M.isVirtualDispatch() && M.Owner != C.Id)
        continue;
      CompiledMethod *Slot = C.ClassTib->Slots[I];
      // Expected class-TIB code: always the general code, except mutable
      // methods of a static-only mutable class (the class TIB itself is
      // specialized there). Inherited mutable methods also expect general
      // code — the general-code-only subclass propagation of Figure 6.
      CompiledMethod *Want = M.General;
      if (CP && M.IsMutable && M.Owner == CP->Cls &&
          !CP->dependsOnInstanceFields() && !M.Flags.IsStatic)
        Want = expectedMutableCode(*CP, M, -1);
      if (Slot != Want)
        addViolation("tib.class-slot",
                     C.Name + " class TIB slot " + std::to_string(I) + " (" +
                         M.Name + ") does not hold the selected code");
    }
    // Special TIBs: same Cls/Imt, state index = position, non-mutable slots
    // agree with the class TIB, mutable slots follow the static-part rule.
    for (size_t S = 0; S < C.SpecialTibs.size(); ++S) {
      TIB *ST = C.SpecialTibs[S];
      if (!ST) {
        addViolation("tib.special-null",
                     C.Name + " special TIB " + std::to_string(S) +
                         " is null under an installed plan");
        continue;
      }
      if (ST->Cls != &C || ST->Imt != C.Imt ||
          ST->StateIndex != static_cast<int>(S)) {
        addViolation("tib.special-identity",
                     C.Name + " special TIB " + std::to_string(S) +
                         " has wrong class/IMT/state identity");
        continue;
      }
      for (size_t I = 0; I < C.VTable.size(); ++I) {
        const MethodInfo &M = P.method(C.VTable[I]);
        bool Mut = CP && M.IsMutable && M.Owner == CP->Cls &&
                   CP->dependsOnInstanceFields() && !M.Flags.IsStatic;
        if (Mut) {
          CompiledMethod *Want =
              expectedMutableCode(*CP, M, static_cast<int>(S));
          if (ST->Slots[I] != Want)
            addViolation("tib.special-slot",
                         C.Name + " special TIB " + std::to_string(S) +
                             " slot " + std::to_string(I) + " (" + M.Name +
                             ") does not hold the state-selected code");
        } else if (ST->Slots[I] != C.ClassTib->Slots[I]) {
          addViolation("tib.special-agree",
                       C.Name + " special TIB " + std::to_string(S) +
                           " disagrees with class TIB on non-mutable slot " +
                           std::to_string(I) + " (" + M.Name + ")");
        }
      }
    }
    if (CP && CP->dependsOnInstanceFields() &&
        C.SpecialTibs.size() != CP->HotStates.size())
      addViolation("tib.special-count",
                   C.Name + " has " + std::to_string(C.SpecialTibs.size()) +
                       " special TIBs for " +
                       std::to_string(CP->HotStates.size()) + " hot states");
  }
}

void ConsistencyAuditor::auditJtoc() {
  Program &P = VM.program();
  const MutationPlan *Plan = VM.program().mutationPlan();
  for (size_t MId = 0; MId < P.numMethods(); ++MId) {
    const MethodInfo &M = P.method(static_cast<MethodId>(MId));
    if (!M.Flags.IsStatic)
      continue;
    CompiledMethod *Entry = P.staticEntry(M.Id);
    const MutableClassPlan *CP =
        (Plan && M.IsMutable) ? Plan->planFor(M.Owner) : nullptr;
    CompiledMethod *Want =
        CP ? expectedMutableCode(*CP, M, -1) : M.General;
    if (Entry != Want)
      addViolation("jtoc.entry",
                   "JTOC entry for " + P.cls(M.Owner).Name + "." + M.Name +
                       " does not hold the state-selected code");
  }
}

void ConsistencyAuditor::auditImts() {
  Program &P = VM.program();
  for (size_t CId = 0; CId < P.numClasses(); ++CId) {
    ClassInfo &C = P.cls(static_cast<ClassId>(CId));
    if (C.IsInterface || !C.Imt)
      continue;
    bool Mutable = C.MutableIndex >= 0;
    for (size_t SlotIdx = 0; SlotIdx < NumImtSlots; ++SlotIdx) {
      const ImtEntry &E = C.Imt->Slots[SlotIdx];
      switch (E.K) {
      case ImtEntry::Kind::Empty:
        break;
      case ImtEntry::Kind::Direct: {
        if (Mutable) {
          addViolation("imt.direct-mutable",
                       "mutable " + C.Name + " still has a Direct IMT entry " +
                           "in slot " + std::to_string(SlotIdx));
          break;
        }
        const MethodInfo &Impl = P.method(E.DirectImpl);
        if (E.VSlot != Impl.VSlot)
          addViolation("imt.direct-vslot",
                       C.Name + " Direct IMT slot " + std::to_string(SlotIdx) +
                           " VSlot disagrees with " + Impl.Name);
        else if (E.DirectCode &&
                 E.DirectCode != C.ClassTib->Slots[Impl.VSlot])
          addViolation("imt.direct-route",
                       C.Name + " Direct IMT slot " + std::to_string(SlotIdx) +
                           " (" + Impl.Name +
                           ") routes differently than virtual dispatch");
        break;
      }
      case ImtEntry::Kind::TibOffset: {
        const MethodInfo &Impl = P.method(E.DirectImpl);
        if (E.VSlot != Impl.VSlot)
          addViolation("imt.tiboffset-vslot",
                       C.Name + " TibOffset IMT slot " +
                           std::to_string(SlotIdx) +
                           " VSlot disagrees with " + Impl.Name);
        if (E.DirectCode)
          addViolation("imt.tiboffset-code",
                       C.Name + " TibOffset IMT slot " +
                           std::to_string(SlotIdx) +
                           " kept a stale direct code pointer");
        break;
      }
      case ImtEntry::Kind::Conflict:
        for (const auto &[IfaceM, VSlot] : E.Table) {
          if (VSlot >= C.VTable.size()) {
            addViolation("imt.conflict-range",
                         C.Name + " conflict stub routes past the vtable");
            continue;
          }
          if (P.method(C.VTable[VSlot]).Name != P.method(IfaceM).Name)
            addViolation("imt.conflict-route",
                         C.Name + " conflict stub routes " +
                             P.method(IfaceM).Name + " to " +
                             P.method(C.VTable[VSlot]).Name);
        }
        break;
      }
    }
  }
}

void ConsistencyAuditor::auditSpecials() {
  Program &P = VM.program();
  for (size_t MId = 0; MId < P.numMethods(); ++MId) {
    const MethodInfo &M = P.method(static_cast<MethodId>(MId));
    for (size_t S = 0; S < M.Specials.size(); ++S) {
      const CompiledMethod *SP = M.Specials[S];
      std::string Where = P.cls(M.Owner).Name + "." + M.Name +
                          " Specials[" + std::to_string(S) + "]";
      if (!SP) {
        addViolation("specials.null", Where + " holds no body");
        continue;
      }
      if (SP->stateIndex() != static_cast<int>(S))
        addViolation("specials.state-index",
                     Where + " holds a body compiled for state " +
                         std::to_string(SP->stateIndex()));
      if (SP->isInvalidated())
        addViolation("specials.invalidated",
                     Where + " holds an invalidated body");
      if (std::find(M.Specials.begin(), M.Specials.begin() + S, SP) !=
          M.Specials.begin() + S)
        addViolation("specials.aliased",
                     Where + " shares its body with an earlier slot");
    }
  }
}

std::string ConsistencyAuditor::report() const {
  if (clean())
    return "consistency auditor: " + std::to_string(auditsRun()) +
           " audits, no violations\n";
  std::string R = "consistency auditor: " + std::to_string(violationCount()) +
                  " violation(s) across " + std::to_string(auditsRun()) +
                  " audits";
  if (violationCount() > Recorded.size())
    R += " (first " + std::to_string(Recorded.size()) + " recorded)";
  R += "\n";
  for (const AuditViolation &V : Recorded)
    R += "  [" + V.Check + "] " + V.Detail + " (at " + V.Trigger + ")\n";
  return R;
}

} // namespace dchm
