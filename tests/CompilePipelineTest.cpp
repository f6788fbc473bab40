//===-- tests/CompilePipelineTest.cpp - Compiler settings and determinism ----===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the compiler's ownership of specialized bodies: one body per
/// Specials slot (checked by the consistency auditor), and bit-identical
/// simulated metrics with no auditor and with one attached.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "compiler/OptCompiler.h"
#include "core/VM.h"
#include "testing/ConsistencyAuditor.h"

#include <gtest/gtest.h>

#include <optional>

using namespace dchm;
using test::CounterFixture;

namespace {

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

TEST(SpecialsOwnership, AuditorFlagsNullSlots) {
  // Hot states are never removed one by one, so under an installed plan
  // every special-TIB slot and every filled Specials slot is non-null. A
  // slot nulled by hand must be reported.
  CounterFixture Fx(/*WithStaticField=*/true);
  VMOptions Opts;
  Opts.Adaptive.AcceleratedMutableHotness = true;
  VirtualMachine VM(*Fx.P, Opts);
  VM.setMutationPlan(&Fx.Plan);
  Object *O = Fx.makeCounter(VM, 0);
  VM.call(Fx.Bump, {valueR(O)});
  ClassInfo &C = Fx.P->cls(Fx.Counter);
  MethodInfo &B = Fx.P->method(Fx.Bump);
  ASSERT_EQ(C.SpecialTibs.size(), 2u);
  ASSERT_EQ(B.Specials.size(), 2u);

  ConsistencyAuditor Auditor(VM);
  Auditor.auditNow("before nulling");
  EXPECT_TRUE(Auditor.clean()) << Auditor.report();

  auto Reported = [&](const char *Check) {
    for (const AuditViolation &V : Auditor.violations())
      if (V.Check == Check)
        return true;
    return false;
  };
  TIB *Tib = C.SpecialTibs[1];
  C.SpecialTibs[1] = nullptr;
  Auditor.auditNow("after nulling a special TIB");
  C.SpecialTibs[1] = Tib;
  EXPECT_TRUE(Reported("tib.special-null")) << Auditor.report();

  Auditor.reset();
  CompiledMethod *Body = B.Specials[1];
  B.Specials[1] = nullptr;
  Auditor.auditNow("after nulling a special body");
  B.Specials[1] = Body;
  EXPECT_TRUE(Reported("specials.null")) << Auditor.report();

  Auditor.reset();
  Auditor.auditNow("after restoring both");
  EXPECT_TRUE(Auditor.clean()) << Auditor.report();
}

TEST(SpecialsOwnership, AuditorFlagsForeignTib) {
  // Every TIB an object sits on is its class TIB or one of the class's
  // special TIBs. A copy of the object's TIB describes the same class but
  // is owned by nobody; moving the object onto it by hand must be reported.
  CounterFixture Fx;
  VirtualMachine VM(*Fx.P, {});
  VM.setMutationPlan(&Fx.Plan);
  LocalRootScope Pin(VM.heap());
  Object *O = Fx.makeCounter(VM, 0);
  Pin.add(O);
  VM.call(Fx.Bump, {valueR(O)});
  ASSERT_TRUE(O->tib()->isSpecial());

  ConsistencyAuditor Auditor(VM);
  Auditor.auditNow("before the move");
  EXPECT_TRUE(Auditor.clean()) << Auditor.report();

  TIB *Own = O->tib();
  TIB Foreign = *Own;
  O->setTib(&Foreign);
  Auditor.auditNow("on a foreign TIB");
  O->setTib(Own);
  bool Foreigner = false;
  for (const AuditViolation &V : Auditor.violations())
    Foreigner |= V.Check == "heap.tib-foreign";
  EXPECT_TRUE(Foreigner) << Auditor.report();

  Auditor.reset();
  Auditor.auditNow("after moving back");
  EXPECT_TRUE(Auditor.clean()) << Auditor.report();
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
/// virtual, interface, and static dispatch all on the path. With Audit an
/// auditor at stride 16 is attached before the plan installs; without it
/// no hook exists.
WorkloadResult runCounterWorkload(bool Audit) {
  const int64_t Reps = 400;
  CounterFixture Fx(/*WithStaticField=*/true);
  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 20;
  Opts.Adaptive.Opt2Threshold = 200;
  VirtualMachine VM(*Fx.P, Opts);
  std::optional<ConsistencyAuditor> Auditor;
  if (Audit) {
    Auditor.emplace(VM, /*Stride=*/16);
    VM.setAuditHook(&*Auditor);
  }
  VM.setMutationPlan(&Fx.Plan);

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
  if (Auditor) {
    Auditor->auditNow("end of workload");
    EXPECT_GT(Auditor->safepointsSeen(), 0u);
    EXPECT_TRUE(Auditor->clean()) << Auditor->report();
  }
  R.Metrics = VM.metrics();
  return R;
}

TEST(CompileDeterminism, BitIdenticalAcrossConfigs) {
  // Attaching an auditor (and the body verification it turns on) is
  // host-side work only.
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
