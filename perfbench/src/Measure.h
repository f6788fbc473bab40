//===-- perfbench/src/Measure.h - Clocks, spans and layer counters -*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measurement plumbing of the benchmark. Everything here observes the VM
/// from outside, through its public stats() accessors: a LayerCounters
/// snapshot is one read of every layer's counters, and the Tracer records a
/// span around each call the benchmark makes into a layer's public function.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include "core/VM.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic host time in nanoseconds.
int64_t nowNs();

/// One read of every layer's public counters, summed over mutator contexts.
/// Differences of two snapshots are the layer's work over an interval.
struct LayerCounters {
  // exec (Interpreter::stats)
  uint64_t Insts = 0, Invocations = 0, VirtualCalls = 0, InterfaceCalls = 0,
           StatePatchHits = 0, ExecCycles = 0;
  // mutation (MutationManager::stats)
  uint64_t TibSwings = 0, CodePointerUpdates = 0, StateMatches = 0,
           StateMisses = 0, MutationCycles = 0, Evictions = 0;
  // adaptive (AdaptiveSystem::stats)
  uint64_t InitialCompiles = 0, Recompilations = 0;
  // compiler front half (OptCompiler::stats)
  uint64_t CompilesOpt[3] = {0, 0, 0};
  uint64_t SpecialCompiles = 0, SpecialRequests = 0, SpecialCacheHits = 0,
           CompileCycles = 0, CodeBytes = 0;
  // compiler back half (CompilePipeline::stats)
  uint64_t Enqueued = 0, InlineRuns = 0, UrgentWaits = 0, Boosts = 0,
           FailedAttempts = 0, Retries = 0, Quarantines = 0;
  // heap (Heap::stats)
  uint64_t GcCount = 0, GcCycles = 0, BytesAllocated = 0,
           ObjectsAllocated = 0, PeakBytes = 0;
  // safepoint (SafepointManager::rendezvousCount)
  uint64_t Rendezvous = 0;
  /// VirtualMachine::totalCycles: the simulated clock.
  uint64_t TotalCycles = 0;

  /// Reads every counter. Byte counters are final only after
  /// OptCompiler::sync(); callers sync first where they need them.
  static LayerCounters read(dchm::VirtualMachine &VM);

  /// Field-wise After - Before, except PeakBytes, a high-water mark that
  /// keeps After's value.
  static LayerCounters delta(const LayerCounters &After,
                             const LayerCounters &Before);
  /// Field-wise sum (PeakBytes takes the max).
  void add(const LayerCounters &O);

  /// The counters that repeat bit-for-bit at one mutator, as (name, value)
  /// pairs. Host-side compile-pipeline counters are excluded: they depend on
  /// worker timing.
  std::vector<std::pair<std::string, uint64_t>> exactFields() const;
};

/// An in-memory span recorder written out as Chrome trace-event JSON. One
/// buffer per mutator context so threads never share a vector; parents are
/// tracked per buffer. Disabled tracers cost one branch per call.
class Tracer {
public:
  explicit Tracer(bool Enabled, unsigned Threads = 1);

  bool enabled() const { return On; }
  /// Switches recording on or off. Call only with no span open, and not
  /// while mutator threads run.
  void setEnabled(bool E) { On = E; }
  /// Opens a span on context Tid and returns its handle (or -1 when off).
  int begin(unsigned Tid, const char *Name, int64_t Op);
  /// Closes span H; Args is a preformatted JSON object body (may be empty).
  void end(unsigned Tid, int H, std::string Args = {});

  /// Writes every span as a Chrome trace-event document. Returns false when
  /// the file cannot be written.
  bool write(const std::string &Path) const;
  size_t spanCount() const;
  size_t dropped() const;

private:
  struct Span {
    const char *Name;
    int64_t Start, End;
    int Parent;
    int64_t Op;
    std::string Args;
  };
  struct Buffer {
    std::vector<Span> Spans;
    std::vector<int> Open;
    size_t Dropped = 0;
  };
  /// Spans beyond this per-context cap are counted, not kept.
  static constexpr size_t MaxSpans = 100000;
  bool On;
  int64_t Origin;
  std::vector<Buffer> Buffers;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &T, const char *Name, int64_t Op = -1, unsigned Tid = 0)
      : T(T), Tid(Tid), H(T.begin(Tid, Name, Op)) {}
  ~Scope() { T.end(Tid, H); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  unsigned Tid;
  int H;
};

/// Percentile (0..100) of Samples by nearest rank; sorts Samples.
double percentile(std::vector<int64_t> &Samples, double Pct);
/// The highest percentile with at least ten samples beyond it, capped at
/// 99 — the tail the guide allows reporting for N samples.
double tailPercentile(size_t N);
double median(std::vector<double> V);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
