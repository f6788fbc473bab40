//===-- online/OnlineController.h - Fully-online mutation -----*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's future-work direction, implemented (section 9): "we will try
/// to move our offline profiling and static analysis to a JVM ... this will
/// require the development of efficient profiling schemes and light weight
/// static analysis algorithms."
///
/// OnlineMutationController runs the whole Figure 3 pipeline *inside* a
/// single VM run, in phases driven by the application's own execution:
///
///   HotProfiling     — the interpreter attributes cycles per method (the
///                      in-VM replacement for VTune) for a warm-up window.
///   ValueProfiling   — EQ 1 runs over the bytecode, candidate fields are
///                      marked, and the value profiler samples their joint
///                      values through the regular state-store hooks.
///   Active           — hot states are mined, the plan is assembled and
///                      installed mid-run: special TIBs appear, mutable
///                      methods that are already at opt2 are recompiled to
///                      generate their specialized versions, the OLC
///                      database is computed, and execution continues with
///                      the dynamically mutated hierarchy. Installation
///                      migrates objects constructed earlier onto the
///                      special TIBs matching their state. The plan then
///                      stays installed for the VM's lifetime.
///   Inert            — nothing to do: no state field was found, or the
///                      mined plan is empty.
///
/// The VM steps the controller each time a host call() returns (after a
/// drive's init, every batch and its check); phase transitions happen
/// there, so neither an extra thread nor a host poll loop is needed, as
/// Jikes' adaptive system is driven from inside the VM.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_ONLINE_ONLINECONTROLLER_H
#define DCHM_ONLINE_ONLINECONTROLLER_H

#include "analysis/OfflinePipeline.h"
#include "core/VM.h"

#include <memory>

namespace dchm {

/// Drives the in-VM (online) version of the Figure 3 pipeline.
class OnlineMutationController {
public:
  struct Config {
    /// Simulated cycles of hot-method profiling before the static analysis.
    uint64_t HotProfileCycles = 2'000'000;
    /// Simulated cycles of joint-value profiling before plan assembly.
    uint64_t ValueProfileCycles = 2'000'000;
    /// Analysis thresholds (shared with the offline pipeline).
    OfflineConfig Analysis;
  };

  enum class Phase { HotProfiling, ValueProfiling, Active, Inert };

  /// Takes VM's after-call step; must outlive every later VM.call() and
  /// the VM's use of the plan. It never detaches, so the VM may die first.
  OnlineMutationController(VirtualMachine &VM, Config Cfg);
  OnlineMutationController(const OnlineMutationController &) = delete;
  OnlineMutationController &operator=(const OnlineMutationController &) =
      delete;

  /// Advances the phase machine (the VM's after-call step). With non-zero
  /// windows it is idempotent at one cycle count; cheap between phases.
  void poll();

  Phase phase() const { return CurPhase; }
  /// The derived plan (empty until Active).
  const MutationPlan &plan() const { return Plan; }
  /// Cycle stamp at which mutation went live (0 until Active).
  uint64_t activationCycle() const { return ActivationCycle; }

private:
  void finishHotProfiling();
  void activate();

  VirtualMachine &VM;
  Config Cfg;
  Phase CurPhase = Phase::HotProfiling;
  uint64_t PhaseStartCycles = 0;
  HotMethodProfile Profile;
  std::vector<ClassStateFields> Candidates;
  std::unique_ptr<ValueProfiler> VP;
  MutationPlan Plan;
  uint64_t ActivationCycle = 0;
};

/// Lower-case display name of a phase ("hot-profiling", "active", ...).
const char *phaseName(OnlineMutationController::Phase Ph);

} // namespace dchm

#endif // DCHM_ONLINE_ONLINECONTROLLER_H
