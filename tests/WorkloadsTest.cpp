//===-- tests/WorkloadsTest.cpp - Benchmark program integration tests ---------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// Integration tests over the seven Table 1 programs. The central property
/// is semantic transparency: a run with dynamic class hierarchy mutation
/// enabled produces byte-identical program output to a run without it.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/OlcAnalysis.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace dchm;

namespace {

struct WorkloadRun {
  RunMetrics Metrics;
  std::string Output;
};

WorkloadRun runOnce(Workload &W, bool Mutation, const MutationPlan *Plan,
                    double Scale = 0.3) {
  auto P = W.buildProgram();
  VMOptions Opts;
  Opts.EnableMutation = Mutation;
  VirtualMachine VM(*P, Opts);
  OlcDatabase Db;
  if (Mutation && Plan) {
    VM.setMutationPlan(Plan);
    Db = analyzeObjectLifetimeConstants(*P, *Plan);
    VM.setOlcDatabase(&Db);
  }
  W.driveScaled(VM, Scale);
  return {VM.metrics(), VM.interp().output()};
}

class WorkloadParity : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadParity, MutationPreservesOutput) {
  auto All = makeAllWorkloads();
  Workload &W = *All[static_cast<size_t>(GetParam())];
  OfflineConfig Cfg;
  Cfg.HotStateMinFraction = 0.05;
  OfflineResult R = runOfflinePipeline(W, Cfg);
  WorkloadRun Base = runOnce(W, false, nullptr);
  WorkloadRun Mut = runOnce(W, true, &R.Plan);
  EXPECT_EQ(Base.Output, Mut.Output) << W.name();
  EXPECT_EQ(Base.Metrics.OutputHash, Mut.Metrics.OutputHash);
  EXPECT_FALSE(Base.Output.empty()) << "workload produced no output";
}

TEST_P(WorkloadParity, MutationFindsAPlan) {
  auto All = makeAllWorkloads();
  Workload &W = *All[static_cast<size_t>(GetParam())];
  OfflineConfig Cfg;
  Cfg.HotStateMinFraction = 0.05;
  OfflineResult R = runOfflinePipeline(W, Cfg);
  EXPECT_FALSE(R.Plan.Classes.empty()) << W.name();
  EXPECT_GE(R.Plan.numHotStates(), 1u);
}

TEST_P(WorkloadParity, DeterministicAcrossRuns) {
  auto All = makeAllWorkloads();
  Workload &W = *All[static_cast<size_t>(GetParam())];
  WorkloadRun A = runOnce(W, false, nullptr, 0.1);
  WorkloadRun B = runOnce(W, false, nullptr, 0.1);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Metrics.TotalCycles, B.Metrics.TotalCycles);
  EXPECT_EQ(A.Metrics.Insts, B.Metrics.Insts);

  // Mutation on, with the offline plan and OLC: the same repeat-run
  // determinism, code bytes included.
  OfflineConfig Cfg;
  Cfg.HotStateMinFraction = 0.05;
  OfflineResult R = runOfflinePipeline(W, Cfg);
  WorkloadRun MA = runOnce(W, true, &R.Plan, 0.1);
  WorkloadRun MB = runOnce(W, true, &R.Plan, 0.1);
  EXPECT_EQ(MA.Output, MB.Output);
  EXPECT_EQ(MA.Metrics.TotalCycles, MB.Metrics.TotalCycles);
  EXPECT_EQ(MA.Metrics.Insts, MB.Metrics.Insts);
  EXPECT_EQ(MA.Metrics.CodeBytes, MB.Metrics.CodeBytes);
}

const char *const WorkloadNames[] = {"SalaryDB",   "SimLogic", "CSVToXML",
                                     "Java2XHTML", "Weka",     "Jbb2000",
                                     "Jbb2005"};

std::string workloadTestName(const ::testing::TestParamInfo<int> &Info) {
  return WorkloadNames[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllSeven, WorkloadParity, ::testing::Range(0, 7),
                         workloadTestName);

TEST(WorkloadSpeedup, SalaryDbGainsAreLarge) {
  auto W = makeSalaryDb();
  OfflineConfig Cfg;
  Cfg.HotStateMinFraction = 0.05;
  OfflineResult R = runOfflinePipeline(*W, Cfg);
  WorkloadRun Base = runOnce(*W, false, nullptr, 1.0);
  WorkloadRun Mut = runOnce(*W, true, &R.Plan, 1.0);
  double Speedup = static_cast<double>(Base.Metrics.TotalCycles) /
                   static_cast<double>(Mut.Metrics.TotalCycles);
  EXPECT_GT(Speedup, 1.15) << "paper reports 31.4%";
  EXPECT_LT(Speedup, 1.6);
}

TEST(WorkloadSpeedup, EveryBenchmarkGains) {
  // Figure 9's sign: mutation never loses on the studied applications.
  auto All = makeAllWorkloads();
  for (auto &W : All) {
    OfflineConfig Cfg;
    Cfg.HotStateMinFraction = 0.05;
    OfflineResult R = runOfflinePipeline(*W, Cfg);
    WorkloadRun Base = runOnce(*W, false, nullptr, 1.0);
    WorkloadRun Mut = runOnce(*W, true, &R.Plan, 1.0);
    EXPECT_LT(Mut.Metrics.TotalCycles, Base.Metrics.TotalCycles) << W->name();
  }
}

TEST(WorkloadOverheads, CodeSizeIncreaseIsBounded) {
  // Figure 10: compiled code growth stays small (paper: < 8% for the
  // applications; our micro-scale programs allow a little more headroom).
  auto All = makeAllWorkloads();
  for (auto &W : All) {
    OfflineConfig Cfg;
    Cfg.HotStateMinFraction = 0.05;
    OfflineResult R = runOfflinePipeline(*W, Cfg);
    WorkloadRun Base = runOnce(*W, false, nullptr, 1.0);
    WorkloadRun Mut = runOnce(*W, true, &R.Plan, 1.0);
    double Inc = static_cast<double>(Mut.Metrics.CodeBytes) /
                     static_cast<double>(Base.Metrics.CodeBytes) -
                 1.0;
    EXPECT_GE(Inc, 0.0) << W->name();
    EXPECT_LT(Inc, 0.30) << W->name();
  }
}

TEST(WorkloadOverheads, TibSpaceIsBytesScale) {
  // Figure 12: special TIB space is tens of bytes to ~1 KB.
  auto All = makeAllWorkloads();
  for (auto &W : All) {
    OfflineConfig Cfg;
    Cfg.HotStateMinFraction = 0.05;
    OfflineResult R = runOfflinePipeline(*W, Cfg);
    WorkloadRun Mut = runOnce(*W, true, &R.Plan, 0.3);
    EXPECT_LE(Mut.Metrics.SpecialTibBytes, 2048u) << W->name();
  }
}

TEST(JbbWindows, MutationGainGrowsIntoSteadyState) {
  // Figures 13-15's shape: comparing mutated vs baseline *per window*, the
  // early windows (before the mutable methods are detected hot and while
  // specialized code is being generated) show less gain than the steady
  // state. Each run uses identical seeds, so per-window transaction mixes
  // line up between the two runs.
  auto W = makeJbb(JbbVariant::Jbb2000);
  OfflineConfig Cfg;
  Cfg.HotStateMinFraction = 0.05;
  OfflineResult R = runOfflinePipeline(*W, Cfg);
  auto Run = [&](bool Mutation) {
    auto P = W->buildProgram();
    VMOptions Opts;
    Opts.EnableMutation = Mutation;
    Opts.Adaptive.SampleInterval = 70; // sparse, Jikes-timer-like sampling
    VirtualMachine VM(*P, Opts);
    OlcDatabase Db;
    if (Mutation) {
      VM.setMutationPlan(&R.Plan);
      Db = analyzeObjectLifetimeConstants(*P, R.Plan);
      VM.setOlcDatabase(&Db);
    }
    W->initVm(VM);
    return W->runWarehouseWindows(VM, 6, 3'000'000, 0);
  };
  auto Base = Run(false);
  auto Mut = Run(true);
  ASSERT_EQ(Base.size(), 6u);
  double FirstDelta = Mut[0].Throughput / Base[0].Throughput - 1.0;
  double SteadyDelta = (Mut[4].Throughput + Mut[5].Throughput) /
                           (Base[4].Throughput + Base[5].Throughput) -
                       1.0;
  EXPECT_GT(SteadyDelta, 0.0);         // steady-state gain exists
  EXPECT_GT(SteadyDelta, FirstDelta);  // ...and exceeds the warm-up window
  for (const JbbWindow &Win : Mut) {
    EXPECT_GT(Win.Transactions, 0u);
    EXPECT_GT(Win.Throughput, 0.0);
  }
}

TEST(JbbWindows, DeterministicThroughput) {
  auto W = makeJbb(JbbVariant::Jbb2005);
  auto Run = [&] {
    auto P = W->buildProgram();
    VirtualMachine VM(*P, {});
    W->initVm(VM);
    return W->runWarehouseWindows(VM, 3, 2'000'000, 500'000);
  };
  auto A = Run();
  auto B = Run();
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I].Transactions, B[I].Transactions);
}

TEST(JbbVariants, Jbb2005AllocatesMore) {
  auto Run = [](JbbVariant V) {
    auto W = makeJbb(V);
    auto P = W->buildProgram();
    VMOptions Opts;
    Opts.HeapBytes = 256u << 20; // big heap: no GC, pure allocation volume
    VirtualMachine VM(*P, Opts);
    W->initVm(VM);
    W->runTransactions(VM, 3000);
    return VM.heap().stats().BytesAllocated;
  };
  EXPECT_GT(Run(JbbVariant::Jbb2005), Run(JbbVariant::Jbb2000));
}

TEST(JbbVariants, Jbb2005RunsCustomerReport) {
  // The 2005 mix includes the heavyweight CustomerReport; 2000's does not.
  auto CyclesIn = [](JbbVariant V, const char *Method) {
    auto W = makeJbb(V);
    auto P = W->buildProgram();
    VirtualMachine VM(*P, {});
    VM.interp().setProfiling(true);
    W->initVm(VM);
    W->runTransactions(VM, 2000);
    MethodId M = P->findMethod(P->findClass("CustomerReportTx"), Method);
    return VM.interp().methodCycles()[M];
  };
  EXPECT_EQ(CyclesIn(JbbVariant::Jbb2000, "process"), 0u);
  EXPECT_GT(CyclesIn(JbbVariant::Jbb2005, "process"), 0u);
}

TEST(Table1, InventoryMatchesExpectations) {
  // Our Table 1: class/method counts per program (stability check so the
  // bench table stays truthful).
  auto All = makeAllWorkloads();
  for (auto &W : All) {
    auto P = W->buildProgram();
    EXPECT_GE(P->numClasses(), 2u) << W->name();
    EXPECT_GE(P->numMethods(), 5u) << W->name();
  }
  auto Salary = makeSalaryDb()->buildProgram();
  EXPECT_EQ(Salary->numClasses(), 4u);
  auto Jbb = makeJbb(JbbVariant::Jbb2000)->buildProgram();
  EXPECT_GE(Jbb->numClasses(), 12u);
}

} // namespace
