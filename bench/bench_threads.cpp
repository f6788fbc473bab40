//===-- bench/bench_threads.cpp - Multi-mutator scaling bench -----------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// Host-side throughput benchmark of the multi-mutator VM (docs/threads.md):
// a jbb-style multi-warehouse run where every mutator thread drives its own
// warehouse — a thread-confined TxLogger swung between hot states while
// transactions accumulate — against one shared Program/Heap/compiler.
//
// For N in {1, 2, 4, 8} mutators, mutation off and on, the bench runs a
// fixed per-warehouse transaction count and reports wall-clock transactions
// per second plus the scaling factor over the single-mutator run. Weak
// scaling: every thread does the same work, so ideal scaling is N on N
// cores. Per-warehouse output hashes must equal the single-mutator
// reference in every configuration — the throughput numbers are only
// admissible because the work is provably the same work.
//
// Results go to stdout and, machine-readable, to BENCH_threads.json. The
// acceptance bar for the multi-mutator overhaul is >1.5x at 4 mutators;
// the bench reports it only when the host has >= 4 hardware threads
// (scaling is a property of the VM, not of a single-core CI container).
//
// Flags: --txns=N   (transactions per warehouse, default 600000)
//        --check    (CI mode: fingerprint equivalence assertions only —
//                    runMutators at N=1 must be bit-identical to the
//                    classic single-threaded path, and per-warehouse
//                    hashes at N=2 must match the N=1 reference with a
//                    clean auditor)
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "asm/Assembler.h"
#include "core/VM.h"
#include "support/Parse.h"
#include "support/Timer.h"
#include "testing/ConsistencyAuditor.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace dchm;
using namespace dchm::bench;

namespace {

// The warehouse program. TxLogger is the mutable class: `mode` is the state
// field, log() branches on it (so specialization folds the branch), and the
// driver swings the logger between the hot states every 64 transactions —
// part I runs concurrently on thread-confined receivers. Warehouse.work is
// the per-mutator driver: it allocates everything it touches and never
// stores a static, per the guest threading contract of docs/threads.md.
const char *WarehouseSource = R"(
class TxLogger {
  field mode: i64
  field acc: i64
  ctor <init>(%m: i64) {
    putfield %this, TxLogger.mode, %m
    %z = consti 0
    putfield %this, TxLogger.acc, %z
    ret
  }
  method setMode(%m: i64) -> void {
    putfield %this, TxLogger.mode, %m
    ret
  }
  method log(%v: i64) -> void {
    %m = getfield %this, TxLogger.mode
    %a = getfield %this, TxLogger.acc
    %zero = consti 0
    %one = consti 1
    %t0 = cmpeq %m, %zero
    cbnz %t0, @m0
    %t1 = cmpeq %m, %one
    cbnz %t1, @m1
    %k2 = consti 7
    %v2 = mul %v, %k2
    %n2 = add %a, %v2
    putfield %this, TxLogger.acc, %n2
    ret
  @m0:
    %n0 = add %a, %v
    putfield %this, TxLogger.acc, %n0
    ret
  @m1:
    %k1 = consti 3
    %v1 = mul %v, %k1
    %n1 = add %a, %v1
    putfield %this, TxLogger.acc, %n1
    ret
  }
  method total() -> i64 {
    %a = getfield %this, TxLogger.acc
    ret %a
  }
}
class Warehouse {
  method work(%txns: i64) -> i64 static {
    %lg = new TxLogger
    %zero = consti 0
    callspecial TxLogger.<init>(%lg, %zero)
    %t = consti 0
    %one = consti 1
    %thirteen = consti 13
    %sixtyfour = consti 64
    %two = consti 2
  @head:
    %c = cmplt %t, %txns
    cbz %c, @done
    %v = rem %t, %thirteen
    callvirtual TxLogger.log(%lg, %v)
    %f = rem %t, %sixtyfour
    cbnz %f, @next
    %blk = div %t, %sixtyfour
    %m = rem %blk, %two
    callvirtual TxLogger.setMode(%lg, %m)
  @next:
    %t = add %t, %one
    br @head
  @done:
    %r = callvirtual TxLogger.total(%lg)
    print %r
    ret %r
  }
  method main() -> i64 static {
    %n = consti 2000
    %r = callstatic Warehouse.work(%n)
    ret %r
  }
}
)";

MutationPlan makeLoggerPlan(Program &P) {
  ProgramIds Ids(P);
  MutableClassPlan CP;
  CP.Cls = Ids.cls("TxLogger");
  CP.InstanceStateFields = {Ids.field("TxLogger", "mode")};
  HotState S0, S1;
  S0.InstanceVals = {valueI(0)};
  S1.InstanceVals = {valueI(1)};
  CP.HotStates = {S0, S1};
  CP.MutableMethods = {Ids.method("TxLogger", "log"),
                       Ids.method("TxLogger", "total")};
  MutationPlan Plan;
  Plan.Classes.push_back(CP);
  return Plan;
}

struct WarehouseRun {
  double WallSec = 0.0;
  std::vector<uint64_t> Hashes; ///< per-warehouse output hash
  uint64_t TotalCycles = 0;
  uint64_t AuditorViolations = 0;
};

/// One multi-warehouse run: classic warmup on context 0 (Warehouse.main —
/// compiles, promotes, installs specials), then Threads concurrent
/// warehouses of Txns transactions each, timed.
WarehouseRun runWarehouses(unsigned Threads, uint64_t Txns, bool Mutation,
                           bool Audit) {
  AssemblyResult R = assembleProgram(WarehouseSource);
  if (!R.ok()) {
    std::fprintf(stderr, "bench_threads: assembly failed: %s\n",
                 R.Error.c_str());
    std::exit(1);
  }
  Program &P = *R.P;
  MutationPlan Plan = makeLoggerPlan(P);

  VMOptions Opts;
  Opts.EnableMutation = Mutation;
  Opts.MutatorThreads = Threads;
  if (Audit)
    Opts.AuditConsistency = true;
  VirtualMachine VM(P, Opts);
  if (Mutation)
    VM.setMutationPlan(&Plan);
  ConsistencyAuditor Auditor(VM);
  if (Audit)
    VM.setAuditHook(&Auditor);

  ProgramIds Ids(P);
  MethodId Main = Ids.method("Warehouse", "main");
  MethodId Work = Ids.method("Warehouse", "work");

  VM.call(Main, {});
  for (unsigned T = 0; T < Threads; ++T)
    VM.interp(T).clearOutput();

  Timer Wall;
  VM.runMutators([&](unsigned T) {
    VM.callOn(T, Work, {valueI(static_cast<int64_t>(Txns))});
  });
  WarehouseRun Out;
  Out.WallSec = Wall.seconds();
  for (unsigned T = 0; T < Threads; ++T)
    Out.Hashes.push_back(VM.interp(T).outputHash());
  Out.TotalCycles = VM.totalCycles();
  if (Audit) {
    Auditor.auditNow("end of warehouse run");
    Out.AuditorViolations = Auditor.violationCount();
  }
  return Out;
}

int check(uint64_t Txns) {
  // 1. The classic single-threaded path: plain call on context 0.
  uint64_t ClassicHash, ClassicCycles;
  {
    AssemblyResult R = assembleProgram(WarehouseSource);
    if (!R.ok()) {
      std::fprintf(stderr, "assembly failed: %s\n", R.Error.c_str());
      return 1;
    }
    MutationPlan Plan = makeLoggerPlan(*R.P);
    VMOptions Opts;
    VirtualMachine VM(*R.P, Opts);
    VM.setMutationPlan(&Plan);
    ProgramIds Ids(*R.P);
    VM.call(Ids.method("Warehouse", "main"), {});
    VM.interp().clearOutput();
    VM.call(Ids.method("Warehouse", "work"),
            {valueI(static_cast<int64_t>(Txns))});
    ClassicHash = VM.interp().outputHash();
    ClassicCycles = VM.totalCycles();
  }

  // 2. runMutators at N=1 must be that exact path (docs/threads.md §3).
  WarehouseRun One = runWarehouses(1, Txns, /*Mutation=*/true, /*Audit=*/true);
  if (One.Hashes[0] != ClassicHash || One.TotalCycles != ClassicCycles) {
    std::fprintf(stderr,
                 "FAIL: runMutators(1) diverged from the classic path "
                 "(hash %llx vs %llx, cycles %llu vs %llu)\n",
                 (unsigned long long)One.Hashes[0],
                 (unsigned long long)ClassicHash,
                 (unsigned long long)One.TotalCycles,
                 (unsigned long long)ClassicCycles);
    return 1;
  }

  // 3. Per-warehouse hashes at N=2, mutation off and on, must match the
  //    single-mutator reference; the auditor must stay clean.
  for (bool Mutation : {false, true}) {
    WarehouseRun Ref = runWarehouses(1, Txns, Mutation, /*Audit=*/true);
    WarehouseRun Two = runWarehouses(2, Txns, Mutation, /*Audit=*/true);
    for (unsigned T = 0; T < 2; ++T)
      if (Two.Hashes[T] != Ref.Hashes[0]) {
        std::fprintf(stderr,
                     "FAIL: warehouse %u hash diverged at N=2 (mutation %s)\n",
                     T, Mutation ? "on" : "off");
        return 1;
      }
    if (Ref.AuditorViolations || Two.AuditorViolations) {
      std::fprintf(stderr, "FAIL: auditor violations (mutation %s)\n",
                   Mutation ? "on" : "off");
      return 1;
    }
  }
  std::printf("bench_threads --check: classic-path identity at N=1, "
              "per-warehouse hashes stable at N=2, auditor clean\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Txns = 600000;
  bool Check = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--txns=", 0) == 0)
      Txns = intFlag("--txns", Argv[I] + 7, 1, LLONG_MAX);
    else if (A == "--check")
      Check = true;
    else {
      std::fprintf(stderr, "unknown flag %s\n", A.c_str());
      return 1;
    }
  }
  if (Check)
    return check(Txns / 10 ? Txns / 10 : 1);

  printHeader("threads", "Multi-mutator warehouse throughput (docs/threads.md)");
  unsigned HwThreads = std::thread::hardware_concurrency();
  std::printf("host hardware threads: %u, transactions/warehouse: %llu\n\n",
              HwThreads, (unsigned long long)Txns);
  std::printf("%-10s %-9s %12s %14s %9s\n", "mutators", "mutation", "wall (s)",
              "tx/sec", "scaling");

  JsonWriter J;
  J.beginObject();
  J.field("bench", "threads");
  J.field("txns_per_warehouse", (uint64_t)Txns);
  J.field("hardware_threads", (uint64_t)HwThreads);
  J.beginArray("runs");

  double Scaling4On = 0.0;
  for (bool Mutation : {false, true}) {
    double Tps1 = 0.0;
    uint64_t RefHash = 0;
    for (unsigned N : {1u, 2u, 4u, 8u}) {
      WarehouseRun Run = runWarehouses(N, Txns, Mutation, /*Audit=*/false);
      // Admissibility: every warehouse must have done the reference work.
      if (N == 1)
        RefHash = Run.Hashes[0];
      for (uint64_t H : Run.Hashes)
        if (H != RefHash) {
          std::fprintf(stderr, "FAIL: warehouse hash diverged at N=%u\n", N);
          return 1;
        }
      double Tps = static_cast<double>(N) * static_cast<double>(Txns) /
                   Run.WallSec;
      if (N == 1)
        Tps1 = Tps;
      double Scaling = Tps / Tps1;
      if (N == 4 && Mutation)
        Scaling4On = Scaling;
      std::printf("%-10u %-9s %12.3f %14.0f %8.2fx\n", N,
                  Mutation ? "on" : "off", Run.WallSec, Tps, Scaling);
      J.beginArrayObject();
      J.field("mutators", (uint64_t)N);
      J.field("mutation", Mutation);
      J.field("wall_sec", Run.WallSec);
      J.field("tx_per_sec", Tps);
      J.field("scaling_vs_1", Scaling);
      J.endObject();
    }
  }
  J.endArray();
  J.field("scaling_at_4_mutation_on", Scaling4On);
  bool ScalingMeasurable = HwThreads >= 4;
  J.field("scaling_measurable", ScalingMeasurable);
  J.endObject();
  J.writeFile("BENCH_threads.json");

  if (ScalingMeasurable) {
    std::printf("\nscaling at 4 mutators (mutation on): %.2fx (bar: >1.5x) — %s\n",
                Scaling4On, Scaling4On > 1.5 ? "PASS" : "FAIL");
    if (Scaling4On <= 1.5)
      return 1;
  } else {
    std::printf("\nscaling at 4 mutators (mutation on): %.2fx — not asserted, "
                "host has %u hardware thread(s)\n",
                Scaling4On, HwThreads);
  }
  std::printf("(BENCH_threads.json written)\n");
  return 0;
}
