//===-- compiler/CompilePipeline.cpp - Background compilation ----------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "compiler/CompilePipeline.h"

#include "compiler/Passes.h"
#include "runtime/CompiledMethod.h"
#include "support/Debug.h"

#include <algorithm>

#if defined(__linux__)
#include <sys/resource.h>
#endif

namespace dchm {

CompilePipeline::~CompilePipeline() {
  // Let in-flight work publish rather than tearing threads down mid-job:
  // pending shells are owned by MethodInfo objects that outlive the VM.
  drain();
  stopWorkers();
}

void CompilePipeline::configure(const Config &C) {
  drain();
  stopWorkers();
  Cfg = C;
  if (Cfg.Async) {
    Cfg.Threads = std::max(1u, Cfg.Threads);
    ShuttingDown = false;
    Workers.reserve(Cfg.Threads);
    for (unsigned I = 0; I < Cfg.Threads; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }
}

void CompilePipeline::setFaultHook(FaultHook H) {
  std::lock_guard<std::mutex> L(Mu);
  Hook = std::move(H);
}

bool CompilePipeline::quarantined(const MethodInfo &M) const {
  if (QuarantineCount.load(std::memory_order_acquire) == 0)
    return false;
  std::lock_guard<std::mutex> L(Mu);
  return Quarantined.count(&M) != 0;
}

bool CompilePipeline::attemptJob(Job &J, const FaultHook &H) const {
  if (H && H(J.CM->method(), J.Level, J.Attempts))
    return false;
  // Deterministic count-based injection: job k fails when k is a multiple
  // of FaultEvery. Transient faults heal on the last allowed attempt so the
  // retry path is exercised without quarantining; persistent faults drive
  // the job all the way to quarantine.
  if (Cfg.FaultEvery && J.FaultId % Cfg.FaultEvery == 0 &&
      (Cfg.FaultPersist || J.Attempts + 1 < Cfg.MaxAttempts))
    return false;
  auto Start = std::chrono::steady_clock::now();
  IRFunction Body = J.Body; // keep the original for a possible retry
  if (J.Level >= 1)
    runOptPipeline(Body);
  if (Cfg.DeadlineMs &&
      std::chrono::steady_clock::now() - Start >
          std::chrono::milliseconds(Cfg.DeadlineMs))
    return false;
  J.CM->finalizeCode(std::move(Body));
  return true;
}

void CompilePipeline::enqueue(CompiledMethod *CM, IRFunction Body, int Level,
                              CompilePriority Pr) {
  DCHM_CHECK(!CM->ready(), "enqueue of an already-finalized compiled method");
  Job J;
  J.CM = CM;
  J.Body = std::move(Body);
  J.Level = Level;
  J.Pr = Pr;
  // Level-0 code is a direct translation — there is no optimization work to
  // offload, and lazy first compiles sit on the application's critical path
  // anyway. Run those inline even in async mode. Inline runs never fault:
  // sync hosts must stay deterministic, so fault tolerance is strictly an
  // async-queue property.
  if (!Cfg.Async || Level < 1) {
    Stats.InlineRuns++;
    if (J.Level >= 1)
      runOptPipeline(J.Body);
    J.CM->finalizeCode(std::move(J.Body));
    return;
  }
  J.FaultId = Stats.Enqueued;
  Stats.Enqueued++;
  {
    std::lock_guard<std::mutex> L(Mu);
    J.Seq = NextSeq++;
    Queue.push_back(std::move(J));
    Pending.store(Queue.size() + InFlight, std::memory_order_relaxed);
  }
  WorkCv.notify_one();
}

void CompilePipeline::waitFor(CompiledMethod &CM) {
  if (CM.ready())
    return;
  DCHM_CHECK(Cfg.Async, "pending compiled method with a synchronous pipeline");
  std::unique_lock<std::mutex> L(Mu);
  // Counted under Mu: several blocked mutators may arrive here concurrently.
  Stats.UrgentWaits++;
  for (Job &J : Queue)
    if (J.CM == &CM) {
      J.Pr = CompilePriority::Urgent;
      // The application thread is blocked on this code: skip any backoff
      // delay so a retry (or the quarantine decision) happens immediately.
      J.NotBefore = {};
    }
  WorkCv.notify_all();
  DoneCv.wait(L, [&] { return CM.ready(); });
}

void CompilePipeline::boost(CompiledMethod &CM) {
  if (CM.ready())
    return;
  bool Changed = false;
  {
    std::lock_guard<std::mutex> L(Mu);
    for (Job &J : Queue)
      if (J.CM == &CM && J.Pr > CompilePriority::Urgent) {
        J.Pr = CompilePriority::Urgent;
        Stats.Boosts++;
        Changed = true;
      }
  }
  // Only kick the workers when a priority actually moved: boosts arrive in
  // bursts (one per migrated object) and re-waking the pool on each would
  // let compilation preempt the application mid-burst on small hosts.
  if (Changed)
    WorkCv.notify_all();
}

void CompilePipeline::drain() {
  // Acquire pairs with the worker's release on completion, so a fast-path
  // return still orders the caller after every finished job's writes.
  if (Pending.load(std::memory_order_acquire) == 0)
    return;
  std::unique_lock<std::mutex> L(Mu);
  DoneCv.wait(L, [&] { return Queue.empty() && InFlight == 0; });
}

void CompilePipeline::workerLoop() {
#if defined(__linux__)
  // Compiler threads yield to the application thread, like the background
  // recompilation threads of a production VM. On Linux setpriority() with
  // who == 0 applies to the calling thread only, which is exactly what we
  // want; best-effort elsewhere.
  setpriority(PRIO_PROCESS, 0, 19);
#endif
  std::unique_lock<std::mutex> L(Mu);
  for (;;) {
    WorkCv.wait(L, [&] { return ShuttingDown || !Queue.empty(); });
    if (ShuttingDown && Queue.empty())
      return;
    // Pick the best (priority, enqueue order) job among the runnable ones
    // (backoff gates may hold some back; on shutdown every job is runnable
    // so the drain cannot hang on a retry delay). Queues stay small — at
    // most one activation burst of |mutable methods| x |hot states| — so a
    // linear scan beats maintaining a heap under the boost mutations.
    auto Now = std::chrono::steady_clock::now();
    size_t Best = Queue.size();
    auto Earliest = std::chrono::steady_clock::time_point::max();
    for (size_t I = 0; I < Queue.size(); ++I) {
      if (!ShuttingDown && Queue[I].NotBefore > Now) {
        Earliest = std::min(Earliest, Queue[I].NotBefore);
        continue;
      }
      if (Best == Queue.size() || Queue[I].Pr < Queue[Best].Pr ||
          (Queue[I].Pr == Queue[Best].Pr && Queue[I].Seq < Queue[Best].Seq))
        Best = I;
    }
    if (Best == Queue.size()) {
      // Everything queued is backing off; sleep until the earliest retry
      // (or a notify: shutdown, a new job, or waitFor clearing a gate).
      WorkCv.wait_until(L, Earliest);
      continue;
    }
    Job J = std::move(Queue[Best]);
    Queue.erase(Queue.begin() + static_cast<std::ptrdiff_t>(Best));
    ++InFlight;
    FaultHook HookCopy = Hook;
    L.unlock();

    bool Ok = attemptJob(J, HookCopy);

    L.lock();
    if (!Ok) {
      ++Stats.FailedAttempts;
      ++J.Attempts;
      if (J.Attempts >= Cfg.MaxAttempts) {
        // Quarantine: pin the method to general code permanently and
        // publish the held (unoptimized, semantics-preserving) body so
        // waitFor callers and the interpreter's pending-shell safepoint
        // are released — a failed compile must never wedge the app thread.
        ++Stats.Quarantines;
        Quarantined.insert(&J.CM->method());
        QuarantineCount.fetch_add(1, std::memory_order_release);
        L.unlock();
        J.CM->finalizeCode(std::move(J.Body));
        L.lock();
      } else {
        ++Stats.Retries;
        unsigned Shift = J.Attempts - 1 < 16 ? J.Attempts - 1 : 16;
        unsigned DelayMs = std::min(Cfg.BackoffBaseMs << Shift,
                                    Cfg.BackoffCapMs);
        J.NotBefore = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(DelayMs);
        Queue.push_back(std::move(J));
      }
    }
    --InFlight;
    Pending.store(Queue.size() + InFlight, std::memory_order_release);
    DoneCv.notify_all();
  }
}

void CompilePipeline::stopWorkers() {
  if (Workers.empty())
    return;
  {
    std::lock_guard<std::mutex> L(Mu);
    ShuttingDown = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Workers)
    T.join();
  Workers.clear();
}

} // namespace dchm
