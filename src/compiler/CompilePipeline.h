//===-- compiler/CompilePipeline.h - Background compilation ---*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A worker-thread pool that runs the optimization pipeline for pending
/// CompiledMethod shells off the application thread. The determinism
/// contract (docs/compile_pipeline.md): everything observable in the
/// *simulated* machine — modeled compile cycles, instruction counts,
/// program output — is decided synchronously at enqueue time, in program
/// order, by OptCompiler. Workers only perform host-side optimization work
/// and publish the body via CompiledMethod::finalizeCode; scheduling can
/// therefore change wall time but never results.
///
/// Requests are prioritized: a request the application thread is blocked on
/// (waitFor) jumps the queue, general recompiles run before specialized
/// versions, and the mutation engine boosts a pending special when an object
/// actually swings into its hot state. Ties are broken by enqueue order, so
/// a single-threaded pool degrades to exactly the synchronous schedule.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_COMPILER_COMPILEPIPELINE_H
#define DCHM_COMPILER_COMPILEPIPELINE_H

#include "ir/Function.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

namespace dchm {

class CompiledMethod;
struct MethodInfo;

/// Relative urgency of a queued compile. Lower value = served first.
enum class CompilePriority : unsigned {
  Urgent = 0,  ///< the application thread is (about to be) blocked on it
  General = 1, ///< general recompile: the method's only executable version
  Special = 2, ///< specialized version: general code covers until it lands
};

/// Host-side activity counters (wall-time diagnostics; never part of the
/// simulated metrics).
struct PipelineStats {
  uint64_t Enqueued = 0;      ///< jobs handed to workers
  uint64_t InlineRuns = 0;    ///< jobs run synchronously (sync mode / opt0)
  uint64_t UrgentWaits = 0;   ///< waitFor calls that found the code pending
  uint64_t Boosts = 0;        ///< priority raises on queued jobs
  uint64_t FailedAttempts = 0; ///< attempts that faulted or missed a deadline
  uint64_t Retries = 0;        ///< failed attempts requeued with backoff
  uint64_t Quarantines = 0;    ///< methods permanently demoted to general code
};

/// Background compiler for pending CompiledMethod shells.
class CompilePipeline {
public:
  struct Config {
    bool Async = false;   ///< off: every enqueue() runs the job inline
    unsigned Threads = 1; ///< worker count when async
    /// Fault tolerance: a failed attempt (fault hook, injected fault, or
    /// deadline overrun) is retried with capped exponential backoff; after
    /// MaxAttempts failures the method is quarantined to general code
    /// permanently and the held body is published so safepoint waiters
    /// never wedge. Faults apply only to async queued jobs — inline/sync
    /// runs never fault, keeping sync hosts deterministic.
    unsigned MaxAttempts = 3;   ///< attempts per job before quarantine
    unsigned BackoffBaseMs = 1; ///< first retry delay
    unsigned BackoffCapMs = 50; ///< backoff ceiling
    unsigned DeadlineMs = 0;    ///< per-attempt opt-work deadline (0 = none)
    unsigned FaultEvery = 0;    ///< inject a failure every Nth job (0 = off)
    bool FaultPersist = false;  ///< injected faults persist across retries
  };

  /// Host-test fault hook: return true to fail this attempt of a job for M.
  using FaultHook =
      std::function<bool(const MethodInfo &M, int Level, unsigned Attempt)>;

  CompilePipeline() = default;
  ~CompilePipeline();
  CompilePipeline(const CompilePipeline &) = delete;
  CompilePipeline &operator=(const CompilePipeline &) = delete;

  /// (Re)configures the pool. Drains and stops existing workers first; must
  /// not race enqueue/waitFor (the VM configures once, at construction).
  void configure(const Config &C);
  bool async() const { return Cfg.Async; }
  unsigned threads() const { return Cfg.Threads; }

  /// Submits the optimization work for CM's body. The shell's modeled cost
  /// is already charged and its pointer already installable; this only
  /// schedules the host-side work. In sync mode (or for jobs with no
  /// optimization pipeline to run, Level < 1) the job runs inline and CM is
  /// ready on return.
  void enqueue(CompiledMethod *CM, IRFunction Body, int Level,
               CompilePriority Pr);

  /// Blocks until CM is ready, boosting its queued job to Urgent so an idle
  /// worker picks it next. No-op if CM is already ready.
  void waitFor(CompiledMethod &CM);

  /// Raises the priority of CM's queued job (e.g. an object just swung into
  /// the hot state this special serves). Non-blocking; no-op if the job is
  /// not queued.
  void boost(CompiledMethod &CM);

  /// Blocks until every queued and in-flight job has finished.
  void drain();

  /// Installs a fault hook consulted before every async job attempt. Set it
  /// before driving the VM (or after a drain); it is read under the queue
  /// mutex, so no attempt races the installation.
  void setFaultHook(FaultHook H);

  /// True when M has exhausted its compile attempts and is pinned to
  /// general code. The adaptive system stops promoting quarantined methods.
  bool quarantined(const MethodInfo &M) const;
  uint64_t quarantineCount() const {
    return QuarantineCount.load(std::memory_order_acquire);
  }

  /// True while any job is queued or in flight. Lock-free; callers use it
  /// to skip boost bookkeeping on the hot path.
  bool hasPending() const {
    return Pending.load(std::memory_order_relaxed) != 0;
  }

  const PipelineStats &stats() const { return Stats; }

private:
  struct Job {
    CompiledMethod *CM = nullptr;
    IRFunction Body;
    int Level = 0;
    CompilePriority Pr = CompilePriority::General;
    uint64_t Seq = 0;
    unsigned Attempts = 0; ///< failed attempts so far
    uint64_t FaultId = 0;  ///< stable id for deterministic fault injection
    std::chrono::steady_clock::time_point NotBefore{}; ///< backoff gate
  };

  /// One optimization attempt; false = the attempt failed (fault hook,
  /// injected fault, or deadline overrun) and J.Body is intact for a retry.
  bool attemptJob(Job &J, const FaultHook &Hook) const;
  void workerLoop();
  void stopWorkers();

  Config Cfg;
  std::vector<std::thread> Workers;
  mutable std::mutex Mu;
  std::condition_variable WorkCv; ///< queue became non-empty / shutdown
  std::condition_variable DoneCv; ///< a job finished
  std::deque<Job> Queue;
  size_t InFlight = 0;
  uint64_t NextSeq = 0;
  bool ShuttingDown = false;
  std::atomic<size_t> Pending{0}; ///< Queue.size() + InFlight
  PipelineStats Stats;            ///< app-thread fields except via mutex
  FaultHook Hook;                 ///< guarded by Mu
  std::unordered_set<const MethodInfo *> Quarantined; ///< guarded by Mu
  std::atomic<uint64_t> QuarantineCount{0};
};

} // namespace dchm

#endif // DCHM_COMPILER_COMPILEPIPELINE_H
