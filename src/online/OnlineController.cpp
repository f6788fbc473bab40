//===-- online/OnlineController.cpp - Fully-online mutation --------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "online/OnlineController.h"

#include "support/Debug.h"

#include <unordered_set>

namespace dchm {

OnlineMutationController::OnlineMutationController(VirtualMachine &VM,
                                                   Config Cfg)
    : VM(VM), Cfg(Cfg) {
  DCHM_CHECK(VM.options().EnableMutation,
             "online controller needs a mutation-enabled VM");
  // Phase 1 begins immediately: per-method cycle attribution on.
  VM.interp().setProfiling(true);
  PhaseStartCycles = VM.totalCycles();
  VM.setAfterCall([this] { poll(); });
}

void OnlineMutationController::poll() {
  switch (CurPhase) {
  case Phase::HotProfiling:
    if (VM.totalCycles() - PhaseStartCycles >= Cfg.HotProfileCycles)
      finishHotProfiling();
    break;
  case Phase::ValueProfiling:
    if (VM.totalCycles() - PhaseStartCycles >= Cfg.ValueProfileCycles)
      activate();
    break;
  case Phase::Active: // the plan stays installed for the VM's lifetime
  case Phase::Inert:
    break;
  }
}

void OnlineMutationController::finishHotProfiling() {
  Program &P = VM.program();
  Profile = HotMethodProfile::fromInterpreter(VM.interp(), P);
  // Turn the (modeled-free, really-cheap) cycle attribution off; the value
  // profiler uses the state-store hooks instead.
  VM.interp().setProfiling(false);

  // Lightweight static analysis over the bytecode (EQ 1). Bytecode is
  // retained by every MethodInfo, so this works as well online as offline.
  Candidates = analyzeStateFields(P, Profile);
  if (Candidates.empty()) {
    CurPhase = Phase::Inert; // nothing worth mutating; stand down
    return;
  }

  // Mark candidate fields and start sampling their joint values through
  // the same interpreter hooks algorithm part I will use later.
  std::vector<FieldId> Profiled = ValueProfiler::profiledFields(Candidates);
  for (FieldId F : Profiled)
    P.field(F).IsStateField = true;
  VP = std::make_unique<ValueProfiler>(P, Profiled);
  VM.setStateObserver(VP.get());
  CurPhase = Phase::ValueProfiling;
  PhaseStartCycles = VM.totalCycles();
}

void OnlineMutationController::activate() {
  Program &P = VM.program();
  VM.setStateObserver(nullptr);
  // Heap census: objects whose state was set before the value-profiling
  // window opened (e.g. a database populated at startup) would otherwise
  // be invisible to store sampling.
  VP->censusHeap(VM.heap());
  auto Mined =
      VP->mine(Candidates, Cfg.Analysis.HotStateMinFraction, MaxHotStates);
  Plan = assembleMutationPlan(P, Profile, Mined);

  // Candidate fields that did not make the plan keep no patch code: clear
  // their state-field marks (installPlan re-marks the plan's fields). One
  // set of every planned field keeps this linear in plans + candidates.
  std::unordered_set<FieldId> Planned;
  for (const MutableClassPlan &CP : Plan.Classes) {
    Planned.insert(CP.InstanceStateFields.begin(),
                   CP.InstanceStateFields.end());
    Planned.insert(CP.StaticStateFields.begin(), CP.StaticStateFields.end());
  }
  for (const ClassStateFields &CSF : Candidates)
    for (const StateFieldCandidate &Cand : CSF.Candidates)
      if (!Planned.count(Cand.Field))
        P.field(Cand.Field).IsStateField = false;

  if (Plan.empty()) {
    CurPhase = Phase::Inert;
    return;
  }
  // Mid-run installation: creates the special TIBs, marks mutable methods,
  // rewires IMT slots, migrates objects constructed before activation onto
  // the special TIBs matching their current state, attaches the OLC
  // database, and recompiles already-hot mutable methods so their
  // specialized versions exist (VirtualMachine::setMutationPlan handles all
  // of it stop-the-world).
  VM.setMutationPlan(&Plan);
  ActivationCycle = VM.totalCycles();
  CurPhase = Phase::Active;
}

const char *phaseName(OnlineMutationController::Phase Ph) {
  switch (Ph) {
  case OnlineMutationController::Phase::HotProfiling:
    return "hot-profiling";
  case OnlineMutationController::Phase::ValueProfiling:
    return "value-profiling";
  case OnlineMutationController::Phase::Active:
    return "active";
  case OnlineMutationController::Phase::Inert:
    return "inert";
  }
  return "?";
}

} // namespace dchm
