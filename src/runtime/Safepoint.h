//===-- runtime/Safepoint.h - Mutator rendezvous protocol ---------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// The paper's distributed mutation algorithm assumes the runtime can pause
// the world before swinging TIB pointers, JTOC entries and IMT slots. With
// one mutator that pause is implicit — any host call out of the interpreter
// is "the world stopped". With N mutators it has to be an explicit protocol:
//
//   * every mutator thread registers a SafepointSlot carrying its poll flag;
//   * the interpreter polls the flag at invocation boundaries and backedges
//     (one relaxed load on the fast path);
//   * a thread that wants the world stopped becomes the *leader*: it raises
//     every other slot's flag, waits until each peer is parked at its poll
//     site (or queued for leadership itself, which counts as safe), runs a
//     closure, and releases the world.
//
// Leadership is exclusive and queued; a parked mutator can be the next
// leader. The closure runs with every other registered thread stopped, so
// it may walk the heap, swing dispatch structures and free code with
// single-threaded reasoning.
//
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_SAFEPOINT_H
#define DCHM_RUNTIME_SAFEPOINT_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dchm {

class SafepointManager;

/// Per-mutator-thread rendezvous state. The interpreter holds a pointer to
/// its thread's slot and calls poll() at safepoint sites.
class SafepointSlot {
public:
  /// True when a leader wants this thread parked. One relaxed load; the
  /// acquire ordering mutators need is established inside park().
  bool pollRequested() const {
    return PollFlag.load(std::memory_order_relaxed);
  }

  /// Fast-path poll: parks iff a rendezvous is pending.
  void poll() {
    if (pollRequested())
      park();
  }

  /// Slow path: blocks until the leader releases the world.
  void park();

private:
  friend class SafepointManager;

  /// Blocked: queued for leadership in SafepointManager::run. It counts as
  /// stopped, so two concurrent requesters never wait for each other.
  enum class State : uint8_t { Running, Parked, Blocked };

  SafepointManager *Mgr = nullptr;
  std::thread::id Tid;       ///< registering thread; identifies the leader
  std::atomic<bool> PollFlag{false};
  State St = State::Running; ///< guarded by the manager's mutex
};

/// The thread registry plus the request/park/resume rendezvous.
class SafepointManager {
public:
  SafepointManager() = default;
  SafepointManager(const SafepointManager &) = delete;
  SafepointManager &operator=(const SafepointManager &) = delete;

  /// Registers the calling thread as a mutator. Blocks while a rendezvous
  /// is in progress (a new mutator must not appear under a stopped world).
  SafepointSlot *registerThread();

  /// Removes the calling thread's slot. Any leader waiting on this thread
  /// is re-notified. The slot pointer is dead after this returns.
  void unregisterThread(SafepointSlot *S);

  /// Runs Fn with every *other* registered mutator stopped. Callable from a
  /// registered mutator (which becomes the leader), from an unregistered
  /// host thread, and — re-entrantly — from inside a running closure (Fn
  /// then executes inline; the world is already stopped).
  void run(const std::function<void()> &Fn);

  /// Number of currently registered mutator threads.
  size_t registered() const;

  /// Total rendezvous served (leadership grants). Host-side telemetry.
  uint64_t rendezvousCount() const {
    return Rendezvous.load(std::memory_order_relaxed);
  }

private:
  friend class SafepointSlot;

  bool allOthersStopped(const SafepointSlot *Leader) const;
  SafepointSlot *selfLocked() const;

  mutable std::mutex Mu;
  std::condition_variable ParkCv;   ///< leader waits for peers to stop
  std::condition_variable ResumeCv; ///< parked peers wait for release
  std::condition_variable LeaderCv; ///< queued leaders / registrations wait
  std::vector<SafepointSlot *> Slots;
  bool Active = false;                   ///< a rendezvous holds the world
  std::thread::id LeaderThread;          ///< valid while Active
  std::atomic<uint64_t> Rendezvous{0};
};

} // namespace dchm

#endif // DCHM_RUNTIME_SAFEPOINT_H
