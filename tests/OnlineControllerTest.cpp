//===-- tests/OnlineControllerTest.cpp - In-VM pipeline (paper section 9) -----===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "online/OnlineController.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace dchm;

namespace {

/// Drives SalaryDB batch by batch; nothing polls, so every expectation
/// below also checks that the VM steps the controller itself.
struct OnlineRun {
  RunMetrics Metrics;
  std::string Output;
  MutationPlan Plan;
  OnlineMutationController::Phase FinalPhase;
  uint64_t ActivationCycle;
};

OnlineRun runSalaryDbOnline(OnlineMutationController::Config Cfg,
                            int Batches = 500) {
  auto W = makeSalaryDb();
  auto P = W->buildProgram();
  VirtualMachine VM(*P, {});
  OnlineMutationController Ctl(VM, Cfg);
  ProgramIds Ids(*P);
  VM.call(Ids.method("TestDriver", "init"), {valueI(400)});
  MethodId RunBatch = Ids.method("TestDriver", "runBatch");
  for (int B = 0; B < Batches; ++B)
    VM.call(RunBatch, {valueI(4)});
  VM.call(Ids.method("TestDriver", "checkSum"), {});
  return {VM.metrics(), VM.interp().output(), Ctl.plan(), Ctl.phase(),
          Ctl.activationCycle()};
}

TEST(OnlineController, ReachesActivePhaseAndDerivesThePlan) {
  OnlineMutationController::Config Cfg;
  OnlineRun R = runSalaryDbOnline(Cfg);
  EXPECT_EQ(R.FinalPhase, OnlineMutationController::Phase::Active);
  ASSERT_EQ(R.Plan.Classes.size(), 1u);
  EXPECT_EQ(R.Plan.Classes[0].HotStates.size(), 4u); // grades 0..3
  EXPECT_GT(R.ActivationCycle, 0u);
}

TEST(OnlineController, MutationGoesLiveMidRun) {
  OnlineMutationController::Config Cfg;
  OnlineRun R = runSalaryDbOnline(Cfg);
  // Specialized code was generated and objects migrated to special TIBs
  // after activation.
  EXPECT_GT(R.Metrics.SpecialCodeBytes, 0u);
  EXPECT_GT(R.Metrics.SpecialTibBytes, 0u);
  EXPECT_GT(R.Metrics.Mutation.ObjectTibSwings, 0u);
}

TEST(OnlineController, StepsOnlyWhenAHostCallReturns) {
  // callOn() is the mutator entry; only call() steps the controller, once
  // per return, however far past a window the clock has run.
  auto W = makeSalaryDb();
  auto P = W->buildProgram();
  VirtualMachine VM(*P, {});
  OnlineMutationController::Config Cfg;
  Cfg.HotProfileCycles = 100'000;
  OnlineMutationController Ctl(VM, Cfg);
  ProgramIds Ids(*P);
  MethodId RunBatch = Ids.method("TestDriver", "runBatch");
  VM.callOn(0, Ids.method("TestDriver", "init"), {valueI(400)});
  for (int B = 0; B < 20; ++B)
    VM.callOn(0, RunBatch, {valueI(4)});
  EXPECT_GT(VM.totalCycles(), Cfg.HotProfileCycles);
  EXPECT_EQ(Ctl.phase(), OnlineMutationController::Phase::HotProfiling);
  VM.call(RunBatch, {valueI(4)});
  EXPECT_EQ(Ctl.phase(), OnlineMutationController::Phase::ValueProfiling);
}

TEST(OnlineController, OutputMatchesOfflineAndBaseline) {
  OnlineMutationController::Config Cfg;
  OnlineRun Online = runSalaryDbOnline(Cfg);

  auto W = makeSalaryDb();
  auto P = W->buildProgram();
  VMOptions Opts;
  Opts.EnableMutation = false;
  VirtualMachine VM(*P, Opts);
  ProgramIds Ids(*P);
  VM.call(Ids.method("TestDriver", "init"), {valueI(400)});
  MethodId RunBatch = Ids.method("TestDriver", "runBatch");
  for (int B = 0; B < 500; ++B)
    VM.call(RunBatch, {valueI(4)});
  VM.call(Ids.method("TestDriver", "checkSum"), {});
  EXPECT_EQ(Online.Output, VM.interp().output());
}

TEST(OnlineController, OnlineBeatsBaselineAfterActivation) {
  OnlineMutationController::Config Cfg;
  Cfg.HotProfileCycles = 1'000'000;
  Cfg.ValueProfileCycles = 1'000'000;
  OnlineRun Online = runSalaryDbOnline(Cfg, 800);

  auto W = makeSalaryDb();
  auto P = W->buildProgram();
  VMOptions Opts;
  Opts.EnableMutation = false;
  VirtualMachine VM(*P, Opts);
  ProgramIds Ids(*P);
  VM.call(Ids.method("TestDriver", "init"), {valueI(400)});
  MethodId RunBatch = Ids.method("TestDriver", "runBatch");
  for (int B = 0; B < 800; ++B)
    VM.call(RunBatch, {valueI(4)});
  VM.call(Ids.method("TestDriver", "checkSum"), {});
  // The whole online run (profiling overhead included) still wins.
  EXPECT_LT(Online.Metrics.TotalCycles, VM.metrics().TotalCycles);
}

TEST(OnlineController, StandsDownWhenNothingIsMutable) {
  // A program with no state-dependent branches: the controller must reach
  // Inert without installing anything.
  Program P;
  ClassId C = P.defineClass("C");
  MethodId Work = P.defineMethod(C, "work", Type::I64, {Type::I64},
                                 {.IsStatic = true});
  {
    FunctionBuilder B("C.work", Type::I64);
    Reg N = B.addArg(Type::I64);
    Reg I = B.newReg(Type::I64);
    Reg S = B.newReg(Type::I64);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    B.move(I, Zero);
    B.move(S, Zero);
    auto LHead = B.makeLabel();
    auto LDone = B.makeLabel();
    B.bind(LHead);
    B.cbz(B.cmp(Opcode::CmpLT, I, N), LDone);
    B.move(S, B.add(S, B.mul(I, I)));
    B.move(I, B.add(I, One));
    B.br(LHead);
    B.bind(LDone);
    B.ret(S);
    P.setBody(Work, B.finalize());
  }
  P.link();
  VirtualMachine VM(P, {});
  OnlineMutationController::Config Cfg;
  Cfg.Analysis.HotStateMinFraction = 0.10; // the threshold this test assumes
  Cfg.HotProfileCycles = 100'000;
  Cfg.ValueProfileCycles = 100'000;
  OnlineMutationController Ctl(VM, Cfg);
  for (int I = 0; I < 200; ++I)
    VM.call(Work, {valueI(200)});
  EXPECT_EQ(Ctl.phase(), OnlineMutationController::Phase::Inert);
  EXPECT_TRUE(Ctl.plan().empty());
  EXPECT_EQ(VM.metrics().SpecialTibBytes, 0u);
}

TEST(OnlineController, PlanMatchesOfflinePipeline) {
  // The online-derived plan should agree with the offline pipeline on the
  // mutable class, its state field, and the hot-state set.
  OnlineMutationController::Config OnCfg;
  OnlineRun Online = runSalaryDbOnline(OnCfg);

  auto W = makeSalaryDb();
  OfflineConfig OffCfg;
  OfflineResult Off = runOfflinePipeline(*W, OffCfg);

  ASSERT_EQ(Online.Plan.Classes.size(), Off.Plan.Classes.size());
  const MutableClassPlan &A = Online.Plan.Classes[0];
  const MutableClassPlan &B = Off.Plan.Classes[0];
  EXPECT_EQ(A.Cls, B.Cls);
  EXPECT_EQ(A.InstanceStateFields, B.InstanceStateFields);
  EXPECT_EQ(A.HotStates.size(), B.HotStates.size());
  EXPECT_EQ(A.MutableMethods, B.MutableMethods);
}

} // namespace
