//===-- perfbench/src/Workloads.h - The benchmark's four workloads -*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads of the benchmark (see perfbench/WORKLOADS.md for why
/// each exists and which layers it should and should not move). Every
/// workload is a closed loop from one process: the next op is issued only
/// after the previous one returned (per mutator thread).
///
/// A run of a workload is: set-up (everything before the first measured
/// op), a reference window (a fixed amount of work whose simulated counters
/// repeat bit-for-bit at one mutator), and the timed phase (ops until the
/// deadline). Every op's output is checked against a reference computed on
/// a mutation-off VM.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Measure.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one measured stretch of a workload produced.
struct Window {
  std::vector<int64_t> OpNs;    ///< per-op host latency
  std::vector<int64_t> OpEndNs; ///< per-op completion time (nowNs clock)
  /// Per-op simulated cycles: the VM's whole clock at one mutator, the
  /// issuing context's execution cycles at several.
  std::vector<int64_t> OpCycles;
  uint64_t Attempted = 0;
  uint64_t Failed = 0; ///< VMError, or output hash != reference
  /// Host time the mutators spent inside ops (wall of the concurrent phase
  /// when several mutators run at once).
  int64_t BusyNs = 0;
  LayerCounters Layers; ///< counter deltas over the window
  /// Compiled code (general + special) existing after the window, bytes.
  uint64_t CodeBytes = 0;
  /// Online lifecycles: activation cycle of the first lifecycle, every
  /// poll() wall time, and the longest poll() of each lifecycle.
  uint64_t ActivationCycle = 0;
  std::vector<int64_t> PollNs;
  std::vector<int64_t> LongestPollNs;
  /// The poll() that activated mutation: it installs the derived plan.
  std::vector<int64_t> ActivationPollNs;
  /// Safepoint probes (traced multi-mutator runs): request-to-closure time.
  std::vector<int64_t> StopNs;
};

/// Set-up phase walls of one set-up.
struct SetupTimes {
  double OfflineS = 0.0; ///< runOfflinePipeline
  double OlcS = 0.0;     ///< analyzeObjectLifetimeConstants
  double InstallS = 0.0; ///< VirtualMachine::setMutationPlan
  uint64_t HotStates = 0;
};

/// The resolved VM configuration a result was measured under.
struct VmConfig {
  bool ThreadedDispatch = false;
  bool AsyncCompile = false;
  unsigned CompileThreads = 0;
  unsigned Mutators = 1;
};

/// Most mutator threads any workload runs (the Tracer's buffer count).
constexpr unsigned MaxMutators = 4;

/// Walls measured after the timed phase.
struct DrainTimes {
  double SyncS = 0.0;      ///< OptCompiler::sync (back-half backlog)
  double CollectUs = 0.0;  ///< one explicit Heap::collect at a safepoint
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Human description of one op, e.g. "TestDriver.runBatch(4) over 400
  /// employees".
  virtual std::string opSize() const = 0;
  /// Mutator threads the timed phase runs on.
  virtual unsigned mutators() const { return 1; }

  /// Output hash of one reference unit (a pass, a lifecycle or an op) on a
  /// mutation-off VM. Every checked unit must reproduce it.
  virtual uint64_t mutationOffReference() = 0;
  void setExpected(uint64_t H) { Expected = H; }

  /// Builds everything up to the first measured op, replacing any earlier
  /// set-up. Fills the set-up walls of the layers it calls.
  virtual void setUp(SetupTimes &S) = 0;
  /// The fixed-size reference window.
  virtual void reference(Window &W) = 0;
  /// The closed loop until DeadlineNs (nowNs() clock).
  virtual void timed(int64_t DeadlineNs, Window &W) = 0;
  /// Post-run walls: compiler backlog and one explicit collection.
  virtual DrainTimes drain() = 0;

  /// Resolved configuration of the VM the current set-up built.
  const VmConfig &config() const { return Cfg; }

protected:
  explicit Workload(Tracer &T) : Tr(T) {}
  Tracer &Tr;
  uint64_t Expected = 0;
  VmConfig Cfg;
};

/// Workload names in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Null when Name is not a workload.
std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       Tracer &T);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
