//===-- tests/SafepointTest.cpp - Rendezvous protocol + multi-mutator VM ------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the safepoint subsystem and the multi-mutator VM mode: the
/// manager-level protocol (nested-request rejection, blocked-counts-as-
/// stopped), rendezvous racing the compile pipeline's quarantine publishes,
/// plan retire/re-install cycles racing mutator entry, a mutator blocked in
/// waitFor while another leads a rendezvous, and per-thread determinism of
/// the guest-visible output streams.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/VM.h"
#include "runtime/Safepoint.h"
#include "testing/ConsistencyAuditor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace dchm;
using test::CounterFixture;

namespace {

void nap(int Us = 100) {
  std::this_thread::sleep_for(std::chrono::microseconds(Us));
}

//===----------------------------------------------------------------------===//
// Manager-level protocol
//===----------------------------------------------------------------------===//

TEST(SafepointProtocol, NestedExplicitRequestIsRejected) {
  SafepointManager M;
  std::atomic<bool> Stop{false};
  // A peer mutator that does nothing but poll, like an interpreter at its
  // invocation-boundary safepoint.
  std::thread Peer([&] {
    SafepointSlot *S = M.registerThread();
    while (!Stop.load(std::memory_order_relaxed)) {
      S->poll();
      nap();
    }
    M.unregisterThread(S);
  });
  SafepointSlot *Self = M.registerThread();
  while (M.registered() < 2)
    nap();

  ASSERT_TRUE(M.beginRendezvous());
  EXPECT_TRUE(M.currentThreadLeads());
  // The explicit form rejects a nested request outright...
  EXPECT_FALSE(M.beginRendezvous());
  EXPECT_TRUE(M.currentThreadLeads()); // ... without disturbing the open one
  // ... while run() treats the same situation as re-entrant and inlines.
  bool Ran = false;
  M.run([&] { Ran = true; });
  EXPECT_TRUE(Ran);
  EXPECT_TRUE(M.currentThreadLeads());
  M.endRendezvous();
  EXPECT_FALSE(M.currentThreadLeads());
  EXPECT_EQ(M.rendezvousCount(), 1u); // the nested forms granted no leadership

  Stop = true;
  Peer.join();
  M.unregisterThread(Self);
  EXPECT_EQ(M.registered(), 0u);
}

TEST(SafepointProtocol, BlockedThreadCountsAsStopped) {
  SafepointManager M;
  std::atomic<bool> PeerBlocked{false};
  std::atomic<bool> Release{false};
  // The peer sits in a host wait (the waitForCode shape) the whole time; it
  // never polls, so the rendezvous below can only complete if Blocked
  // satisfies the leader.
  std::thread Peer([&] {
    SafepointSlot *S = M.registerThread();
    {
      SafepointBlockedScope Scope(S);
      PeerBlocked = true;
      while (!Release.load(std::memory_order_relaxed))
        nap();
    }
    M.unregisterThread(S);
  });
  while (!PeerBlocked.load())
    nap();
  // From an unregistered host thread (the VM's construction-time GC shape).
  bool Ran = false;
  M.run([&] { Ran = true; });
  EXPECT_TRUE(Ran);
  EXPECT_EQ(M.rendezvousCount(), 1u);
  Release = true;
  Peer.join();
}

//===----------------------------------------------------------------------===//
// Multi-mutator VM
//===----------------------------------------------------------------------===//

TEST(MultiMutator, RetireReinstallCyclesRaceMutatorEntry) {
  // One mutator swings the plan out and back in while the others are mid
  // driveBump loop: every install/retire must rendezvous against mutators
  // that are actively entering methods, and guest results must be exactly
  // the single-threaded arithmetic regardless of which dispatch mode (plan
  // installed or not) any given bump ran under.
  CounterFixture Fx;
  VMOptions Opts;
  Opts.MutatorThreads = 4;
  Opts.Adaptive.Opt1Threshold = 8;
  Opts.Adaptive.Opt2Threshold = 64;
  Opts.AuditConsistency = true;
  VirtualMachine VM(*Fx.P, Opts);
  ConsistencyAuditor Auditor(VM, /*Stride=*/256);
  VM.setAuditHook(&Auditor);
  VM.setMutationPlan(&Fx.Plan);

  LocalRootScope Pin(VM.heap());
  const unsigned N = VM.mutatorThreads();
  ASSERT_EQ(N, 4u);
  for (unsigned T = 0; T < N; ++T)
    Pin.add(Fx.makeCounter(VM, T % 2));

  VM.runMutators([&](unsigned T) {
    Object *O = Pin[T];
    for (int R = 0; R < 40; ++R) {
      VM.callOn(T, Fx.DriveBump, {valueR(O), valueI(25)});
      if (T == 0 && R % 8 == 3) {
        EXPECT_TRUE(VM.retireMutationPlan());
        VM.setMutationPlan(&Fx.Plan);
      }
    }
  });

  for (unsigned T = 0; T < N; ++T)
    EXPECT_EQ(VM.call(Fx.Get, {valueR(Pin[T])}).I, (T % 2) ? 10000 : 1000);
  EXPECT_TRUE(Auditor.clean()) << Auditor.report();
  EXPECT_GT(VM.safepoints().rendezvousCount(), 0u);
  EXPECT_EQ(VM.safepoints().registered(), 0u); // everyone unregistered
}

TEST(MultiMutator, RendezvousWhileQuarantinePublishesHeldBody) {
  // Every async compile attempt faults, so the single worker keeps driving
  // jobs to quarantine — publishing held bodies — while mutators dispatch
  // through the pending shells and one of them periodically stops the
  // world. The rendezvous and the worker's publish are allowed to overlap;
  // correctness of the guest results and a clean audit are the witnesses.
  CounterFixture Fx;
  VMOptions Opts;
  Opts.MutatorThreads = 2;
  Opts.AsyncCompile = true;
  Opts.CompileThreads = 1;
  Opts.Adaptive.Opt1Threshold = 8;
  Opts.Adaptive.Opt2Threshold = 64;
  Opts.AuditConsistency = true;
  VirtualMachine VM(*Fx.P, Opts);
  ConsistencyAuditor Auditor(VM, /*Stride=*/256);
  VM.setAuditHook(&Auditor);
  VM.setMutationPlan(&Fx.Plan);
  VM.compiler().pipeline().setFaultHook(
      [](const MethodInfo &, int, unsigned) { return true; });

  LocalRootScope Pin(VM.heap());
  for (unsigned T = 0; T < 2; ++T)
    Pin.add(Fx.makeCounter(VM, T % 2));

  std::atomic<uint64_t> ExplicitStops{0};
  VM.runMutators([&](unsigned T) {
    Object *O = Pin[T];
    for (int R = 0; R < 30; ++R) {
      VM.callOn(T, Fx.DriveBump, {valueR(O), valueI(20)});
      if (T == 1 && R % 10 == 5)
        VM.atSafepoint([&] { ExplicitStops++; });
    }
  });
  VM.compiler().sync();

  EXPECT_EQ(ExplicitStops.load(), 3u);
  EXPECT_GT(VM.compiler().pipeline().quarantineCount(), 0u);
  for (unsigned T = 0; T < 2; ++T)
    EXPECT_EQ(VM.call(Fx.Get, {valueR(Pin[T])}).I, (T % 2) ? 6000 : 600);
  EXPECT_TRUE(Auditor.clean()) << Auditor.report();
}

TEST(MultiMutator, RendezvousCompletesWhileMutatorBlockedInWaitFor) {
  // Mutator 0 promotes Counter.bump, whose async compile is stalled by the
  // fault hook, and blocks in waitForCode dispatching the pending shell.
  // Mutator 1 then leads a rendezvous: it must complete while 0 is blocked
  // (Blocked counts as stopped), and only afterwards is the compile
  // released. A protocol that waited for 0 to poll would deadlock here.
  CounterFixture Fx;
  VMOptions Opts;
  Opts.MutatorThreads = 2;
  Opts.AsyncCompile = true;
  Opts.CompileThreads = 1;
  Opts.Adaptive.Opt1Threshold = 8;
  Opts.Adaptive.Opt2Threshold = 1 << 28; // one promotion only
  VirtualMachine VM(*Fx.P, Opts);

  std::atomic<bool> CompileStarted{false};
  std::atomic<bool> ReleaseCompile{false};
  const MethodInfo *Bump = &Fx.P->method(Fx.Bump);
  VM.compiler().pipeline().setFaultHook(
      [&](const MethodInfo &M, int Level, unsigned) {
        if (&M == Bump && Level >= 1) {
          CompileStarted = true;
          while (!ReleaseCompile.load(std::memory_order_relaxed))
            nap();
        }
        return false; // never actually fault
      });

  LocalRootScope Pin(VM.heap());
  Pin.add(Fx.makeCounter(VM, 0));

  std::atomic<uint64_t> LeaderRan{0};
  VM.runMutators([&](unsigned T) {
    if (T == 0) {
      VM.callOn(0, Fx.DriveBump, {valueR(Pin[0]), valueI(50)});
      return;
    }
    // Host-side spinning must still poll, like any long host call-out on a
    // mutator thread — a non-polling Running mutator would stall mutator
    // 0's own promotion rendezvous.
    SafepointSlot *S = VM.interp(1).safepointSlot();
    while (!CompileStarted.load(std::memory_order_relaxed)) {
      S->poll();
      nap();
    }
    nap(5000); // give mutator 0 time to reach waitForCode
    VM.atSafepoint([&] { LeaderRan++; });
    ReleaseCompile = true;
  });

  EXPECT_EQ(LeaderRan.load(), 1u);
  EXPECT_TRUE(CompileStarted.load());
  EXPECT_EQ(VM.call(Fx.Get, {valueR(Pin[0])}).I, 50);
}

TEST(MultiMutator, PerThreadOutputHashesAreDeterministic) {
  // N>1 weakens the determinism contract to per-thread: each mutator's own
  // output stream (and hash) must be a pure function of its workload, never
  // of scheduling, and the merged metrics hash is derived from the
  // per-thread hashes in thread order (docs/threads.md).
  auto RunThreaded = [](unsigned N, std::vector<uint64_t> &Hashes) {
    CounterFixture Fx;
    VMOptions Opts;
    Opts.MutatorThreads = N;
    Opts.Adaptive.Opt1Threshold = 8;
    Opts.Adaptive.Opt2Threshold = 64;
    Opts.AuditConsistency = true;
    VirtualMachine VM(*Fx.P, Opts);
    ConsistencyAuditor Auditor(VM, /*Stride=*/512);
    VM.setAuditHook(&Auditor);
    VM.setMutationPlan(&Fx.Plan);
    LocalRootScope Pin(VM.heap());
    for (unsigned T = 0; T < N; ++T)
      Pin.add(Fx.makeCounter(VM, T % 2));
    VM.runMutators([&](unsigned T) {
      for (int R = 0; R < 10; ++R) {
        VM.callOn(T, Fx.DriveBump, {valueR(Pin[T]), valueI(30)});
        VM.callOn(T, Fx.Report, {valueR(Pin[T])});
      }
    });
    for (unsigned T = 0; T < N; ++T)
      Hashes.push_back(VM.interp(T).outputHash());
    Hashes.push_back(VM.metrics().OutputHash);
    EXPECT_TRUE(Auditor.clean()) << Auditor.report();
  };

  // Single-mutator references for the two per-thread workloads (mode 0 and
  // mode 1): a mutator's stream must match the same work run alone.
  uint64_t Ref[2];
  for (int Mode = 0; Mode < 2; ++Mode) {
    CounterFixture Fx;
    VirtualMachine VM(*Fx.P, VMOptions{});
    VM.setMutationPlan(&Fx.Plan);
    LocalRootScope Pin(VM.heap());
    Pin.add(Fx.makeCounter(VM, Mode));
    for (int R = 0; R < 10; ++R) {
      VM.call(Fx.DriveBump, {valueR(Pin[0]), valueI(30)});
      VM.call(Fx.Report, {valueR(Pin[0])});
    }
    Ref[Mode] = VM.interp().outputHash();
  }

  std::vector<uint64_t> A, B;
  RunThreaded(4, A);
  RunThreaded(4, B);
  EXPECT_EQ(A, B); // run-to-run stability, merged hash included
  for (unsigned T = 0; T < 4; ++T)
    EXPECT_EQ(A[T], Ref[T % 2]); // and each stream matches its solo run
}

TEST(MultiMutator, SingleMutatorRunMutatorsIsTheClassicPath) {
  // At MutatorThreads=1 runMutators is Body(0) inline: no threads, no
  // protocol, and bit-identical results to the plain call() sequence.
  auto Run = [](bool ViaRunMutators) {
    CounterFixture Fx;
    VirtualMachine VM(*Fx.P, VMOptions{});
    VM.setMutationPlan(&Fx.Plan);
    LocalRootScope Pin(VM.heap());
    Pin.add(Fx.makeCounter(VM, 0));
    auto Body = [&](unsigned) {
      VM.call(Fx.DriveBump, {valueR(Pin[0]), valueI(100)});
      VM.call(Fx.Report, {valueR(Pin[0])});
    };
    if (ViaRunMutators)
      VM.runMutators(Body);
    else
      Body(0);
    RunMetrics M = VM.metrics();
    EXPECT_EQ(VM.safepoints().rendezvousCount(), 0u);
    return std::make_pair(M.OutputHash, M.TotalCycles);
  };
  EXPECT_EQ(Run(false), Run(true));
}

} // namespace
