//===-- tests/CompilePipelineTest.cpp - Background compilation ----------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the asynchronous compile pipeline and the content-keyed
/// specialization cache: body equivalence with the synchronous compiler,
/// cache sharing across hot states that a method cannot distinguish,
/// bit-identical simulated metrics across every async/cache/thread-count
/// configuration, and a compile/mutate/dispatch stress run (the TSan
/// target).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "compiler/OptCompiler.h"
#include "core/VM.h"
#include "testing/ConsistencyAuditor.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace dchm;
using test::CounterFixture;

namespace {

/// VirtualMachines now own compile worker threads by default, and gtest's
/// "fast" death-test style forks the whole process: the child inherits the
/// pipeline's mutex/queue state but none of its workers, so any wait in the
/// child deadlocks. Switch the whole binary to the re-exec ("threadsafe")
/// style. Done from a test Environment because these run after
/// InitGoogleTest has initialized the flag, unlike static initializers.
class ThreadsafeDeathTests : public ::testing::Environment {
public:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

const ::testing::Environment *const RegisterDeathStyle =
    ::testing::AddGlobalTestEnvironment(new ThreadsafeDeathTests);

//===----------------------------------------------------------------------===//
// Pipeline basics (standalone OptCompiler)
//===----------------------------------------------------------------------===//

TEST(CompilePipeline, AsyncBodyMatchesSyncBody) {
  CounterFixture FxSync, FxAsync;
  OptCompiler Sync(*FxSync.P); // default: synchronous, no cache
  OptCompiler Async(*FxAsync.P);
  Async.configure({.Async = true, .Threads = 2}, /*SpecializationCache=*/false);

  CompiledMethod *CS = Sync.compileGeneral(FxSync.P->method(FxSync.Bump), 2);
  EXPECT_TRUE(CS->ready()); // sync-created code is born ready

  CompiledMethod *CA = Async.compileGeneral(FxAsync.P->method(FxAsync.Bump), 2);
  Async.waitFor(*CA);
  ASSERT_TRUE(CA->ready());
  EXPECT_EQ(CA->code().Insts.size(), CS->code().Insts.size());
  EXPECT_EQ(CA->codeBytes(), CS->codeBytes());

  // Modeled cycles are charged at request time; bytes settle after sync().
  Async.sync();
  EXPECT_EQ(Async.stats().TotalCompileCycles, Sync.stats().TotalCompileCycles);
  EXPECT_EQ(Async.stats().TotalCodeBytes, Sync.stats().TotalCodeBytes);
}

TEST(CompilePipeline, Opt0RunsInlineEvenWhenAsync) {
  CounterFixture Fx;
  OptCompiler OC(*Fx.P);
  OC.configure({.Async = true, .Threads = 2}, false);
  // Opt0 is a verbatim translation with no pipeline to run off-thread; it
  // must be ready on return because the caller is about to execute it.
  CompiledMethod *CM = OC.compileGeneral(Fx.P->method(Fx.Get), 0);
  EXPECT_TRUE(CM->ready());
  EXPECT_EQ(CM->code().Insts.size(), Fx.P->method(Fx.Get).Bytecode.Insts.size());
}

TEST(CompilePipeline, DrainLeavesNothingPending) {
  CounterFixture Fx;
  OptCompiler OC(*Fx.P);
  OC.configure({.Async = true, .Threads = 4}, false);
  std::vector<CompiledMethod *> CMs;
  for (MethodId M : {Fx.Bump, Fx.Get, Fx.SetMode, Fx.StaticScale})
    CMs.push_back(OC.compileGeneral(Fx.P->method(M), 1));
  OC.sync();
  EXPECT_FALSE(OC.pipeline().hasPending());
  for (CompiledMethod *CM : CMs)
    EXPECT_TRUE(CM->ready());
}

TEST(CompilePipeline, VmResolvesOptionOverEnvOverTableDefault) {
  CounterFixture Fx;
  const char *const Vars[] = {"DCHM_ASYNC_COMPILE", "DCHM_COMPILE_THREADS",
                              "DCHM_SPEC_CACHE", "DCHM_CODE_BUDGET"};
  for (const char *V : Vars)
    unsetenv(V);

  // Unset option, unset variable: the support/Env.h table default, and
  // options() reports it.
  {
    VirtualMachine VM(*Fx.P, {});
    const VMOptions &O = VM.options();
    ASSERT_TRUE(O.AsyncCompile && O.CompileThreads && O.SpecializationCache &&
                O.CodeBudgetBytes);
    EXPECT_TRUE(*O.AsyncCompile);
    EXPECT_EQ(*O.CompileThreads, 2u);
    EXPECT_TRUE(*O.SpecializationCache);
    EXPECT_EQ(*O.CodeBudgetBytes, 0u);
    EXPECT_TRUE(VM.compiler().pipeline().async());
    EXPECT_EQ(VM.compiler().pipeline().threads(), 2u);
  }

  // The environment beats the table default.
  setenv("DCHM_ASYNC_COMPILE", "OFF", 1);
  setenv("DCHM_COMPILE_THREADS", "4", 1);
  setenv("DCHM_SPEC_CACHE", "0", 1);
  setenv("DCHM_CODE_BUDGET", "4096", 1);
  {
    VirtualMachine VM(*Fx.P, {});
    const VMOptions &O = VM.options();
    EXPECT_FALSE(*O.AsyncCompile);
    EXPECT_EQ(*O.CompileThreads, 4u);
    EXPECT_FALSE(*O.SpecializationCache);
    EXPECT_EQ(*O.CodeBudgetBytes, 4096u);
    EXPECT_FALSE(VM.compiler().pipeline().async());
    EXPECT_EQ(VM.mutation().codeBudget(), 4096u);
  }

  // An explicit option beats the environment.
  {
    VMOptions Opts;
    Opts.AsyncCompile = true;
    Opts.CompileThreads = 1;
    Opts.SpecializationCache = true;
    Opts.CodeBudgetBytes = 0;
    VirtualMachine VM(*Fx.P, Opts);
    const VMOptions &O = VM.options();
    EXPECT_TRUE(*O.AsyncCompile);
    EXPECT_EQ(*O.CompileThreads, 1u);
    EXPECT_TRUE(*O.SpecializationCache);
    EXPECT_EQ(*O.CodeBudgetBytes, 0u);
    EXPECT_TRUE(VM.compiler().pipeline().async());
    EXPECT_EQ(VM.compiler().pipeline().threads(), 1u);
    EXPECT_EQ(VM.mutation().codeBudget(), 0u);
  }

  for (const char *V : Vars)
    unsetenv(V);
}

//===----------------------------------------------------------------------===//
// Content-keyed specialization cache
//===----------------------------------------------------------------------===//

TEST(SpecCache, UnreadFieldDoesNotSplitTheCache) {
  CounterFixture Fx(/*WithStaticField=*/true);
  OptCompiler OC(*Fx.P);
  OC.configure({}, /*SpecializationCache=*/true);
  OC.setPlan(&Fx.Plan);
  const MutableClassPlan &CP = Fx.Plan.Classes[0];

  // staticScale reads only globalMode, which both hot states pin to 0: the
  // states are indistinguishable to it, so the cache must hand back the
  // same CompiledMethod.
  MethodInfo &SS = Fx.P->method(Fx.StaticScale);
  CompiledMethod *S0 = OC.compileSpecial(SS, 2, CP, 0);
  CompiledMethod *S1 = OC.compileSpecial(SS, 2, CP, 1);
  EXPECT_EQ(S0, S1);
  EXPECT_EQ(S0->shareCount(), 2u);

  // bump folds mode, which the hot states disagree on: distinct bodies.
  MethodInfo &B = Fx.P->method(Fx.Bump);
  CompiledMethod *B0 = OC.compileSpecial(B, 2, CP, 0);
  CompiledMethod *B1 = OC.compileSpecial(B, 2, CP, 1);
  EXPECT_NE(B0, B1);
  EXPECT_EQ(B0->shareCount(), 1u);

  EXPECT_EQ(OC.stats().SpecialCompileRequests, 4u);
  EXPECT_EQ(OC.stats().SpecialCompiles, 3u);
  EXPECT_EQ(OC.stats().SpecialCacheHits, 1u);
  EXPECT_GT(OC.stats().SpecialCyclesSharedWork, 0u);
}

TEST(SpecCache, InvalidatedEntriesAreNotServed) {
  CounterFixture Fx(/*WithStaticField=*/true);
  OptCompiler OC(*Fx.P);
  OC.configure({}, true);
  OC.setPlan(&Fx.Plan);
  const MutableClassPlan &CP = Fx.Plan.Classes[0];
  MethodInfo &SS = Fx.P->method(Fx.StaticScale);

  CompiledMethod *S0 = OC.compileSpecial(SS, 2, CP, 0);
  S0->invalidate();
  CompiledMethod *S1 = OC.compileSpecial(SS, 2, CP, 1);
  EXPECT_NE(S0, S1); // stale code must not be resurrected
  EXPECT_EQ(OC.stats().SpecialCacheHits, 0u);
  EXPECT_EQ(OC.stats().SpecialCompiles, 2u);
}

TEST(SpecCache, HitsChargeIdenticalModeledCycles) {
  // The cache trades host work and code bytes, never simulated time: a run
  // with the cache on must report the exact cycles of a run with it off.
  CounterFixture FxOn(true), FxOff(true);
  OptCompiler On(*FxOn.P), Off(*FxOff.P);
  On.configure({}, true);
  Off.configure({}, false);
  On.setPlan(&FxOn.Plan);
  Off.setPlan(&FxOff.Plan);

  for (size_t S = 0; S < 2; ++S) {
    On.compileSpecial(FxOn.P->method(FxOn.StaticScale), 2,
                      FxOn.Plan.Classes[0], S);
    Off.compileSpecial(FxOff.P->method(FxOff.StaticScale), 2,
                       FxOff.Plan.Classes[0], S);
  }
  EXPECT_EQ(On.stats().SpecialCacheHits, 1u);
  EXPECT_EQ(Off.stats().SpecialCacheHits, 0u);
  EXPECT_EQ(On.stats().SpecialCompileCycles, Off.stats().SpecialCompileCycles);
  EXPECT_EQ(On.stats().TotalCompileCycles, Off.stats().TotalCompileCycles);
  // ... but it does save real code bytes.
  EXPECT_LT(On.stats().SpecialCodeBytes, Off.stats().SpecialCodeBytes);
}

TEST(SpecCache, EndToEndSharesStaticOnlyReader) {
  // Through the full VM: accelerated hotness compiles the mutable methods
  // at opt2 on first call, producing one special per hot state. staticScale
  // cannot tell the states apart, so its Specials slots alias one body.
  CounterFixture Fx(/*WithStaticField=*/true);
  VMOptions Opts;
  Opts.Adaptive.AcceleratedMutableHotness = true;
  Opts.AsyncCompile = true;
  Opts.CompileThreads = 2;
  Opts.SpecializationCache = true;
  VirtualMachine VM(*Fx.P, Opts);
  VM.setMutationPlan(&Fx.Plan);
  Object *O = Fx.makeCounter(VM, 0);
  VM.call(Fx.Bump, {valueR(O)});
  VM.call(Fx.StaticScale, {});
  VM.compiler().sync();

  const MethodInfo &SS = Fx.P->method(Fx.StaticScale);
  ASSERT_EQ(SS.Specials.size(), 2u);
  EXPECT_EQ(SS.Specials[0], SS.Specials[1]);
  EXPECT_EQ(SS.Specials[0]->shareCount(), 2u);

  const MethodInfo &B = Fx.P->method(Fx.Bump);
  ASSERT_EQ(B.Specials.size(), 2u);
  EXPECT_NE(B.Specials[0], B.Specials[1]);

  RunMetrics M = VM.metrics();
  EXPECT_EQ(M.SpecialCacheHits, 1u);
  EXPECT_EQ(M.SpecialCompileRequests, M.SpecialCompiles + M.SpecialCacheHits);
}

//===----------------------------------------------------------------------===//
// Determinism across configurations
//===----------------------------------------------------------------------===//

struct WorkloadResult {
  int64_t Sum = 0;
  RunMetrics Metrics;
};

/// A mutation-heavy workload: two counters swinging through hot states 0/1
/// and the cold state 2 while the adaptive system recompiles mid-loop, with
/// virtual, interface, and static dispatch all on the path.
WorkloadResult runCounterWorkload(bool Async, unsigned Threads, bool Cache,
                                  int64_t Reps = 400) {
  CounterFixture Fx(/*WithStaticField=*/true);
  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 20;
  Opts.Adaptive.Opt2Threshold = 200;
  Opts.AsyncCompile = Async;
  Opts.CompileThreads = Threads;
  Opts.SpecializationCache = Cache;
  Opts.AuditConsistency = true;
  VirtualMachine VM(*Fx.P, Opts);
  VM.setMutationPlan(&Fx.Plan);
  ConsistencyAuditor Auditor(VM, /*Stride=*/16);
  VM.setAuditHook(&Auditor);

  Object *A = Fx.makeCounter(VM, 0);
  Object *B = Fx.makeCounter(VM, 1);
  WorkloadResult R;
  for (int64_t Mode : {0, 1, 2, 1, 0}) {
    VM.call(Fx.SetMode, {valueR(A), valueI(Mode)});
    VM.call(Fx.DriveBump, {valueR(A), valueI(Reps)});
    VM.call(Fx.DriveIface, {valueR(B), valueI(Reps / 2)});
    R.Sum += VM.call(Fx.DriveStatic, {valueI(Reps / 2)}).I;
  }
  VM.call(Fx.Report, {valueR(A)});
  VM.call(Fx.Report, {valueR(B)});
  R.Sum += VM.call(Fx.Get, {valueR(A)}).I;
  R.Sum += VM.call(Fx.Get, {valueR(B)}).I;
  Auditor.auditNow("end of workload");
  EXPECT_GT(Auditor.auditsRun(), 0u);
  EXPECT_TRUE(Auditor.clean()) << Auditor.report();
  R.Metrics = VM.metrics();
  return R;
}

TEST(CompileDeterminism, BitIdenticalAcrossConfigs) {
  const WorkloadResult Base =
      runCounterWorkload(false, 1, false);
  struct Cfg {
    bool Async;
    unsigned Threads;
    bool Cache;
  };
  const Cfg Cfgs[] = {
      {false, 1, true},
      {true, 1, true},
      {true, 4, true},
      {true, 4, false},
  };
  for (const Cfg &C : Cfgs) {
    WorkloadResult R = runCounterWorkload(C.Async, C.Threads, C.Cache);
    // Everything the simulated machine observes is identical...
    EXPECT_EQ(R.Sum, Base.Sum);
    EXPECT_EQ(R.Metrics.OutputHash, Base.Metrics.OutputHash);
    EXPECT_EQ(R.Metrics.Insts, Base.Metrics.Insts);
    EXPECT_EQ(R.Metrics.Invocations, Base.Metrics.Invocations);
    EXPECT_EQ(R.Metrics.ExecCycles, Base.Metrics.ExecCycles);
    EXPECT_EQ(R.Metrics.CompileCycles, Base.Metrics.CompileCycles);
    EXPECT_EQ(R.Metrics.SpecialCompileCycles,
              Base.Metrics.SpecialCompileCycles);
    EXPECT_EQ(R.Metrics.MutationCycles, Base.Metrics.MutationCycles);
    EXPECT_EQ(R.Metrics.GcCycles, Base.Metrics.GcCycles);
    EXPECT_EQ(R.Metrics.TotalCycles, Base.Metrics.TotalCycles);
    EXPECT_EQ(R.Metrics.SpecialCompileRequests,
              Base.Metrics.SpecialCompileRequests);
    // ... while the cache may only shrink host-side code footprint.
    EXPECT_LE(R.Metrics.SpecialCodeBytes, Base.Metrics.SpecialCodeBytes);
    if (C.Cache)
      EXPECT_GT(R.Metrics.SpecialCacheHits, 0u);
    else
      EXPECT_EQ(R.Metrics.SpecialCacheHits, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Compile/mutate/dispatch stress (the TSan target)
//===----------------------------------------------------------------------===//

TEST(CompileStress, AsyncCompileMutateDispatchStress) {
  // Hammer the racy surface: workers publishing bodies while the app thread
  // swings TIBs between states, dispatches through pending shells (blocking
  // at the safepoint), boosts queued specials, and recompiles. Repeated so
  // pool startup/shutdown is covered too; results must match the fully
  // synchronous schedule exactly.
  const WorkloadResult Base =
      runCounterWorkload(false, 1, false, 600);
  for (int Round = 0; Round < 3; ++Round) {
    WorkloadResult R =
        runCounterWorkload(true, 4, true, 600);
    EXPECT_EQ(R.Sum, Base.Sum);
    EXPECT_EQ(R.Metrics.OutputHash, Base.Metrics.OutputHash);
    EXPECT_EQ(R.Metrics.Insts, Base.Metrics.Insts);
    EXPECT_EQ(R.Metrics.TotalCycles, Base.Metrics.TotalCycles);
  }
}

} // namespace
