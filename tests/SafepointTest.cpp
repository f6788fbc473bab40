//===-- tests/SafepointTest.cpp - Rendezvous protocol + multi-mutator VM ------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the safepoint subsystem and the multi-mutator VM mode: the
/// manager-level protocol (a nested request runs inline, concurrent
/// requesters both lead), a mid-run plan install racing mutator entry,
/// per-thread determinism of the guest-visible output streams, and the one
/// heap allocator collecting small and large objects under N mutators.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "asm/Assembler.h"
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

void nap() { std::this_thread::sleep_for(std::chrono::microseconds(100)); }

//===----------------------------------------------------------------------===//
// Manager-level protocol
//===----------------------------------------------------------------------===//

TEST(SafepointProtocol, NestedRunExecutesInline) {
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

  // A request from inside the closure must not queue behind its own open
  // rendezvous: it runs inline, on this thread, with the world still
  // stopped.
  std::vector<int> Order;
  M.run([&] {
    Order.push_back(1);
    M.run([&] { Order.push_back(2); });
    Order.push_back(3);
  });
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(M.rendezvousCount(), 1u); // the nested run granted no leadership

  Stop = true;
  Peer.join();
  M.unregisterThread(Self);
  EXPECT_EQ(M.registered(), 0u);
}

TEST(SafepointProtocol, ConcurrentRequestersBothLead) {
  // Two registered mutators request the world at once, and neither polls
  // before its request. The first leader sees its peer stopped only
  // because a requester queued for leadership counts as stopped; otherwise
  // each would wait for the other forever.
  SafepointManager M;
  std::atomic<unsigned> Ready{0};
  std::atomic<unsigned> Ran{0};
  auto Requester = [&] {
    SafepointSlot *S = M.registerThread();
    ++Ready;
    while (Ready.load() < 2)
      nap();
    M.run([&] { ++Ran; });
    // Keep polling so the other requester's rendezvous can park this one.
    while (Ran.load() < 2) {
      S->poll();
      nap();
    }
    M.unregisterThread(S);
  };
  std::thread A(Requester);
  std::thread B(Requester);
  A.join();
  B.join();
  EXPECT_EQ(Ran.load(), 2u);
  EXPECT_EQ(M.rendezvousCount(), 2u);
  EXPECT_EQ(M.registered(), 0u);
}

//===----------------------------------------------------------------------===//
// Multi-mutator VM
//===----------------------------------------------------------------------===//

TEST(MultiMutator, MidRunInstallRacesMutatorEntry) {
  // One mutator installs the plan while the others are mid driveBump loop:
  // the install (and its migration of the counters already on class TIBs)
  // must rendezvous against mutators that are actively entering methods,
  // and guest results must be exactly the single-threaded arithmetic
  // whichever dispatch mode (plan installed or not) any given bump ran
  // under.
  CounterFixture Fx;
  VMOptions Opts;
  Opts.MutatorThreads = 4;
  Opts.Adaptive.Opt1Threshold = 8;
  Opts.Adaptive.Opt2Threshold = 64;
  VirtualMachine VM(*Fx.P, Opts);
  ConsistencyAuditor Auditor(VM, /*Stride=*/256);
  VM.setAuditHook(&Auditor);

  LocalRootScope Pin(VM.heap());
  const unsigned N = VM.mutatorThreads();
  ASSERT_EQ(N, 4u);
  for (unsigned T = 0; T < N; ++T)
    Pin.add(Fx.makeCounter(VM, T % 2));

  VM.runMutators([&](unsigned T) {
    Object *O = Pin[T];
    for (int R = 0; R < 40; ++R) {
      VM.callOn(T, Fx.DriveBump, {valueR(O), valueI(25)});
      if (T == 0 && R == 11)
        VM.setMutationPlan(&Fx.Plan);
    }
  });

  for (unsigned T = 0; T < N; ++T)
    EXPECT_EQ(VM.call(Fx.Get, {valueR(Pin[T])}).I, (T % 2) ? 10000 : 1000);
  EXPECT_TRUE(Auditor.clean()) << Auditor.report();
  EXPECT_GT(VM.safepoints().rendezvousCount(), 0u);
  EXPECT_EQ(VM.safepoints().registered(), 0u); // everyone unregistered
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

/// What runChurn observed: each mutator's result and output hash, and the
/// heap's counters at the end.
struct ChurnOutcome {
  std::vector<int64_t> Results;
  std::vector<uint64_t> Hashes;
  HeapStats Heap;
};

/// Assembles Src and runs Main.churn(Arg) on each of N mutators of a fresh
/// VM with a HeapBytes heap, which must never exceed its budget.
ChurnOutcome runChurn(const char *Src, unsigned N, int64_t Arg,
                      size_t HeapBytes) {
  AssemblyResult AR = assembleProgram(Src);
  EXPECT_TRUE(AR.ok()) << AR.Error;
  ChurnOutcome Out;
  if (!AR.ok())
    return Out;
  MethodId Churn = AR.P->findMethod(AR.P->findClass("Main"), "churn");
  VMOptions Opts;
  Opts.MutatorThreads = N;
  Opts.HeapBytes = HeapBytes;
  VirtualMachine VM(*AR.P, Opts);
  Out.Results.resize(N);
  VM.runMutators([&](unsigned T) {
    Out.Results[T] = VM.callOn(T, Churn, {valueI(Arg)}).I;
  });
  for (unsigned T = 0; T < N; ++T)
    Out.Hashes.push_back(VM.interp(T).outputHash());
  Out.Heap = VM.heap().stats();
  EXPECT_FALSE(VM.heap().budgetError()) << VM.heap().budgetError().message();
  return Out;
}

TEST(MultiMutator, AllocatingMutatorsShareOneCollectingHeap) {
  // Every mutator runs the same allocating op in a heap small enough that
  // collections, triggered from any context, sweep every context's blocks
  // mid-run. A ring of 16 arrays survives each collection and feeds the
  // checksum, so a lost or freed live object changes the output.
  const char *Src = R"(
    class Node {
      field val: i64
      ctor <init>(%v: i64) {
        putfield %this, Node.val, %v
        ret
      }
    }
    class Main {
      method churn(%n: i64) -> i64 static {
        %zero = consti 0
        %one = consti 1
        %three = consti 3
        %eight = consti 8
        %sixteen = consti 16
        %keep = newarray ref, %sixteen
        %i = consti 0
      @fill:
        %f = cmplt %i, %sixteen
        cbz %f, @filled
        %a = newarray i64, %eight
        astore ref, %keep, %i, %a
        %i = add %i, %one
        br @fill
      @filled:
        %sum = consti 0
        %i = consti 0
      @head:
        %t = cmplt %i, %n
        cbz %t, @done
        %slot = rem %i, %sixteen
        %old = aload ref, %keep, %slot
        %v = aload i64, %old, %three
        %sum = add %sum, %v
        %o = new Node
        callspecial Node.<init>(%o, %i)
        %w = getfield %o, Node.val
        %a = newarray i64, %eight
        astore i64, %a, %three, %w
        astore ref, %keep, %slot, %a
        %i = add %i, %one
        br @head
      @done:
        print %sum
        ret %sum
      }
    }
  )";
  ChurnOutcome One = runChurn(Src, 1, 4000, 64u << 10);
  ChurnOutcome Four = runChurn(Src, 4, 4000, 64u << 10);
  ASSERT_EQ(One.Results.size(), 1u);
  ASSERT_EQ(Four.Results.size(), 4u);
  EXPECT_EQ(One.Results[0], 3984 * 3983 / 2); // sum of i - 16, i in [16, n)
  EXPECT_GT(One.Heap.GcCount, 0u);
  EXPECT_GT(Four.Heap.GcCount, 0u);
  for (unsigned T = 0; T < 4; ++T) {
    EXPECT_EQ(Four.Results[T], One.Results[0]) << "mutator " << T;
    EXPECT_EQ(Four.Hashes[T], One.Hashes[0]) << "mutator " << T;
  }
  EXPECT_EQ(Four.Heap.ObjectsAllocated, 4 * One.Heap.ObjectsAllocated);
  EXPECT_EQ(Four.Heap.BytesAllocated, 4 * One.Heap.BytesAllocated);
}

TEST(MultiMutator, MutatorsChurningLargeArraysShareOneCollectingHeap) {
  // Every mutator churns 2048-slot arrays (16 KiB + header, so each gets
  // its own mapping) in a heap that holds only a few dozen of them, so
  // collections sweep large objects out of every context's buffer. A ring
  // of 8 survives each collection and feeds the checksum through its last
  // slot; each fresh array's middle slot is added too, so an array that
  // did not start zeroed changes the output.
  const char *Src = R"(
    class Main {
      method churn(%n: i64) -> i64 static {
        %one = consti 1
        %eight = consti 8
        %len = consti 2048
        %mid = consti 1024
        %last = consti 2047
        %keep = newarray ref, %eight
        %i = consti 0
      @fill:
        %f = cmplt %i, %eight
        cbz %f, @filled
        %a = newarray i64, %len
        astore ref, %keep, %i, %a
        %i = add %i, %one
        br @fill
      @filled:
        %sum = consti 0
        %i = consti 0
      @head:
        %t = cmplt %i, %n
        cbz %t, @done
        %slot = rem %i, %eight
        %old = aload ref, %keep, %slot
        %v = aload i64, %old, %last
        %sum = add %sum, %v
        %a = newarray i64, %len
        %z = aload i64, %a, %mid
        %sum = add %sum, %z
        astore i64, %a, %mid, %i
        astore i64, %a, %last, %i
        astore ref, %keep, %slot, %a
        %i = add %i, %one
        br @head
      @done:
        print %sum
        ret %sum
      }
    }
  )";
  ChurnOutcome One = runChurn(Src, 1, 400, 1u << 20);
  ChurnOutcome Four = runChurn(Src, 4, 400, 1u << 20);
  ASSERT_EQ(One.Results.size(), 1u);
  ASSERT_EQ(Four.Results.size(), 4u);
  EXPECT_EQ(One.Results[0], 392 * 391 / 2); // sum of i - 8, i in [8, n)
  EXPECT_GT(One.Heap.GcCount, 0u);
  EXPECT_GT(Four.Heap.GcCount, 0u);
  for (unsigned T = 0; T < 4; ++T) {
    EXPECT_EQ(Four.Results[T], One.Results[0]) << "mutator " << T;
    EXPECT_EQ(Four.Hashes[T], One.Hashes[0]) << "mutator " << T;
  }
  EXPECT_EQ(Four.Heap.BytesAllocated, 4 * One.Heap.BytesAllocated);
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
