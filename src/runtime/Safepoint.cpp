//===-- runtime/Safepoint.cpp - Mutator rendezvous protocol -------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "runtime/Safepoint.h"

#include <algorithm>

namespace dchm {

//===----------------------------------------------------------------------===//
// SafepointSlot
//===----------------------------------------------------------------------===//

void SafepointSlot::park() {
  SafepointManager &M = *Mgr;
  std::unique_lock<std::mutex> L(M.Mu);
  // The flag can already be clear again (the rendezvous ended between the
  // relaxed fast-path load and acquiring the mutex); the loop also covers a
  // back-to-back rendezvous re-raising the flag before this thread resumed.
  while (PollFlag.load(std::memory_order_relaxed)) {
    St = State::Parked;
    M.ParkCv.notify_all();
    M.ResumeCv.wait(
        L, [&] { return !PollFlag.load(std::memory_order_relaxed); });
  }
  St = State::Running;
}

//===----------------------------------------------------------------------===//
// SafepointManager
//===----------------------------------------------------------------------===//

SafepointSlot *SafepointManager::registerThread() {
  std::unique_lock<std::mutex> L(Mu);
  // A new mutator must not appear under a stopped world.
  LeaderCv.wait(L, [&] { return !Active; });
  auto *S = new SafepointSlot();
  S->Mgr = this;
  S->Tid = std::this_thread::get_id();
  Slots.push_back(S);
  return S;
}

void SafepointManager::unregisterThread(SafepointSlot *S) {
  std::lock_guard<std::mutex> L(Mu);
  // Vanishing satisfies a leader currently waiting for this thread: the
  // caller guarantees it touches nothing shared after unregistering.
  Slots.erase(std::remove(Slots.begin(), Slots.end(), S), Slots.end());
  delete S;
  ParkCv.notify_all();
}

SafepointSlot *SafepointManager::selfLocked() const {
  std::thread::id Me = std::this_thread::get_id();
  for (SafepointSlot *S : Slots)
    if (S->Tid == Me)
      return S;
  return nullptr;
}

bool SafepointManager::allOthersStopped(const SafepointSlot *Leader) const {
  for (const SafepointSlot *S : Slots)
    if (S != Leader && S->St == SafepointSlot::State::Running)
      return false;
  return true;
}

void SafepointManager::run(const std::function<void()> &Fn) {
  std::unique_lock<std::mutex> L(Mu);
  std::thread::id Me = std::this_thread::get_id();
  if (Active && LeaderThread == Me) {
    // Re-entrant request from inside a closure: the world is already
    // stopped by this thread, so the nested closure runs inline.
    L.unlock();
    Fn();
    return;
  }
  // Queue for leadership. While queued, this mutator counts as stopped —
  // otherwise two threads requesting a rendezvous would deadlock, each
  // waiting for the other to park.
  SafepointSlot *Self = selfLocked();
  if (Self) {
    Self->St = SafepointSlot::State::Blocked;
    ParkCv.notify_all();
  }
  LeaderCv.wait(L, [&] { return !Active; });
  Active = true;
  LeaderThread = Me;
  Rendezvous.fetch_add(1, std::memory_order_relaxed);
  for (SafepointSlot *S : Slots)
    if (S != Self)
      S->PollFlag.store(true, std::memory_order_relaxed);
  ParkCv.wait(L, [&] { return allOthersStopped(Self); });
  if (Self)
    Self->St = SafepointSlot::State::Running; // the leader runs the closure
  L.unlock();
  Fn();
  L.lock();
  for (SafepointSlot *S : Slots)
    S->PollFlag.store(false, std::memory_order_relaxed);
  Active = false;
  LeaderThread = std::thread::id();
  ResumeCv.notify_all();
  LeaderCv.notify_all();
}

size_t SafepointManager::registered() const {
  std::lock_guard<std::mutex> L(Mu);
  return Slots.size();
}

} // namespace dchm
