//===-- tests/CompilePipelineTest.cpp - Compiler settings and determinism ----===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the compiler's host settings and ownership of specialized
/// bodies: VMOptions resolution through the environment table, one body
/// per Specials slot (checked by the consistency auditor), and
/// bit-identical simulated metrics with the auditor off and on.
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

//===----------------------------------------------------------------------===//
// Host settings
//===----------------------------------------------------------------------===//

TEST(CompilePipeline, VmResolvesOptionOverEnvOverTableDefault) {
  CounterFixture Fx;
  const char *const Vars[] = {"DCHM_AUDIT", "DCHM_CODE_BUDGET",
                              "DCHM_THREADS"};
  for (const char *V : Vars)
    unsetenv(V);

  // Unset option, unset variable: the support/Env.h table default, and
  // options() reports it.
  {
    VirtualMachine VM(*Fx.P, {});
    const VMOptions &O = VM.options();
    ASSERT_TRUE(O.AuditConsistency && O.CodeBudgetBytes && O.MutatorThreads);
    EXPECT_FALSE(*O.AuditConsistency);
    EXPECT_EQ(*O.CodeBudgetBytes, 0u);
    EXPECT_EQ(*O.MutatorThreads, 1u);
  }

  // The environment beats the table default; a malformed integer ("4x")
  // is ignored, not read as its numeric prefix. "0" is one of the off
  // spellings.
  setenv("DCHM_AUDIT", "0", 1);
  setenv("DCHM_CODE_BUDGET", "4096", 1);
  setenv("DCHM_THREADS", "4x", 1);
  {
    VirtualMachine VM(*Fx.P, {});
    const VMOptions &O = VM.options();
    EXPECT_FALSE(*O.AuditConsistency);
    EXPECT_FALSE(VM.auditEnabled());
    EXPECT_EQ(*O.CodeBudgetBytes, 4096u);
    EXPECT_EQ(VM.mutation().codeBudget(), 4096u);
    EXPECT_EQ(*O.MutatorThreads, 1u);
    EXPECT_FALSE(VM.multiMutator());
  }

  // Any other set value turns a bool knob on.
  setenv("DCHM_AUDIT", "on", 1);
  {
    VirtualMachine VM(*Fx.P, {});
    EXPECT_TRUE(*VM.options().AuditConsistency);
    EXPECT_TRUE(VM.auditEnabled());
  }

  // An explicit option beats the environment.
  {
    VMOptions Opts;
    Opts.AuditConsistency = false;
    Opts.CodeBudgetBytes = 0;
    VirtualMachine VM(*Fx.P, Opts);
    const VMOptions &O = VM.options();
    EXPECT_FALSE(*O.AuditConsistency);
    EXPECT_FALSE(VM.auditEnabled());
    EXPECT_EQ(*O.CodeBudgetBytes, 0u);
    EXPECT_EQ(VM.mutation().codeBudget(), 0u);
  }

  for (const char *V : Vars)
    unsetenv(V);
}

//===----------------------------------------------------------------------===//
// One specialized body per hot state
//===----------------------------------------------------------------------===//

TEST(SpecialsOwnership, AuditorFlagsAliasedSlots) {
  // Accelerated hotness compiles bump at opt2 on its first call, one
  // special per hot state. Every slot owns its own body, so the auditor is
  // clean; aliasing two slots by hand must be reported.
  CounterFixture Fx(/*WithStaticField=*/true);
  VMOptions Opts;
  Opts.Adaptive.AcceleratedMutableHotness = true;
  VirtualMachine VM(*Fx.P, Opts);
  VM.setMutationPlan(&Fx.Plan);
  Object *O = Fx.makeCounter(VM, 0);
  VM.call(Fx.Bump, {valueR(O)});

  MethodInfo &B = Fx.P->method(Fx.Bump);
  ASSERT_EQ(B.Specials.size(), 2u);
  ASSERT_TRUE(B.Specials[0] && B.Specials[1]);
  EXPECT_NE(B.Specials[0], B.Specials[1]);
  const CompilerStats &CS = VM.compiler().stats();
  EXPECT_EQ(CS.SpecialCompileRequests, CS.SpecialCompiles);
  EXPECT_EQ(CS.SpecialCacheHits, 0u);

  ConsistencyAuditor Auditor(VM);
  Auditor.auditNow("before aliasing");
  EXPECT_TRUE(Auditor.clean()) << Auditor.report();

  CompiledMethod *Own = B.Specials[1];
  B.Specials[1] = B.Specials[0];
  Auditor.auditNow("after aliasing");
  B.Specials[1] = Own;
  bool Aliased = false;
  for (const AuditViolation &V : Auditor.violations())
    Aliased |= V.Check == "specials.aliased";
  EXPECT_TRUE(Aliased) << Auditor.report();
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
/// virtual, interface, and static dispatch all on the path. The auditor is
/// attached either way; with Audit off, setAuditHook is a no-op.
WorkloadResult runCounterWorkload(bool Audit) {
  const int64_t Reps = 400;
  CounterFixture Fx(/*WithStaticField=*/true);
  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 20;
  Opts.Adaptive.Opt2Threshold = 200;
  Opts.AuditConsistency = Audit;
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
  if (Audit) {
    Auditor.auditNow("end of workload");
    EXPECT_GT(Auditor.safepointsSeen(), 0u);
    EXPECT_TRUE(Auditor.clean()) << Auditor.report();
  } else {
    EXPECT_EQ(Auditor.auditsRun(), 0u);
  }
  R.Metrics = VM.metrics();
  return R;
}

TEST(CompileDeterminism, BitIdenticalAcrossConfigs) {
  // The VMOptions::AuditConsistency contract: auditing (and the body
  // verification it turns on) is host-side work only.
  const WorkloadResult Base = runCounterWorkload(/*Audit=*/false);
  const WorkloadResult R = runCounterWorkload(/*Audit=*/true);
  EXPECT_EQ(R.Sum, Base.Sum);
  EXPECT_EQ(R.Metrics.OutputHash, Base.Metrics.OutputHash);
  EXPECT_EQ(R.Metrics.Insts, Base.Metrics.Insts);
  EXPECT_EQ(R.Metrics.Invocations, Base.Metrics.Invocations);
  EXPECT_EQ(R.Metrics.ExecCycles, Base.Metrics.ExecCycles);
  EXPECT_EQ(R.Metrics.CompileCycles, Base.Metrics.CompileCycles);
  EXPECT_EQ(R.Metrics.SpecialCompileCycles, Base.Metrics.SpecialCompileCycles);
  EXPECT_EQ(R.Metrics.MutationCycles, Base.Metrics.MutationCycles);
  EXPECT_EQ(R.Metrics.GcCycles, Base.Metrics.GcCycles);
  EXPECT_EQ(R.Metrics.TotalCycles, Base.Metrics.TotalCycles);
  EXPECT_EQ(R.Metrics.CodeBytes, Base.Metrics.CodeBytes);
  EXPECT_EQ(R.Metrics.SpecialCodeBytes, Base.Metrics.SpecialCodeBytes);
  EXPECT_EQ(R.Metrics.SpecialCompiles, Base.Metrics.SpecialCompiles);
  EXPECT_GT(R.Metrics.SpecialCompiles, 0u);
}

} // namespace
