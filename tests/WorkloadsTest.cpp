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
#include "online/Deployment.h"
#include "runtime/CostModel.h"
#include "testing/ConsistencyAuditor.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dchm;

namespace {

struct RunResult {
  RunMetrics Metrics;
  std::string Output;
  size_t OnSpecial = 0; ///< objects on a special TIB after the drive
};

/// Objects of the run sitting on a special TIB.
size_t objectsOnSpecialTibs(VirtualMachine &VM) {
  size_t N = 0;
  VM.heap().forEachObject([&](Object *O) {
    N += !O->isArray() && O->tib() && O->tib()->isSpecial();
  });
  return N;
}

RunResult runOnce(Workload &W, bool Mutation, const MutationPlan *Plan,
                  double Scale = 0.3) {
  VMOptions Opts = W.vmOptions();
  Opts.EnableMutation = Mutation;
  Deployment Run(W.assemble(), Opts, Plan ? *Plan : MutationPlan{});
  Run.drive(Scale);
  return {Run.vm().metrics(), Run.vm().interp().output(),
          objectsOnSpecialTibs(Run.vm())};
}

/// Every compiled body of P, replaced ones included, carries a well-formed
/// dispatch entry at each instruction: a group of 1-3 inside the body,
/// charged the sum of its members' cycles. The bytecode is never stamped.
void expectStampedBodies(const Program &P, const char *Tag) {
  size_t Bad = 0;
  for (size_t Id = 0; Id < P.numMethods(); ++Id) {
    const MethodInfo &M = P.method(static_cast<MethodId>(Id));
    if (std::any_of(M.Bytecode.Insts.begin(), M.Bytecode.Insts.end(),
                    [](const Instruction &In) { return In.Count != 0; }) &&
        ++Bad <= 5)
      ADD_FAILURE() << Tag << ": bytecode of " << M.Name << " is stamped";
    for (const auto &CM : M.CompiledVersions) {
      const std::vector<Instruction> &Insts = CM->code().Insts;
      for (size_t I = 0; I < Insts.size(); ++I) {
        const size_t Count = Insts[I].Count;
        uint64_t Cycles = 0;
        for (size_t J = I; J < I + Count && J < Insts.size(); ++J)
          Cycles += opcodeCycles(Insts[J].Op);
        if ((Count < 1 || Count > 3 || I + Count > Insts.size() ||
             Insts[I].Cycles != Cycles) &&
            ++Bad <= 5)
          ADD_FAILURE() << Tag << ": " << M.Name << " opt" << CM->optLevel()
                        << " state " << CM->stateIndex() << " at " << I
                        << ": count " << Count << ", cycles "
                        << Insts[I].Cycles << " (want " << Cycles << ")";
      }
    }
  }
  EXPECT_EQ(Bad, 0u) << Tag;
}

class WorkloadParity : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadParity, MutationPreservesOutput) {
  auto All = makeAllWorkloads();
  Workload &W = *All[static_cast<size_t>(GetParam())];
  OfflineConfig Cfg;
  OfflineResult R = runOfflinePipeline(W, Cfg);
  RunResult Base = runOnce(W, false, nullptr);
  RunResult Mut = runOnce(W, true, &R.Plan);
  EXPECT_EQ(Base.Output, Mut.Output) << W.name();
  EXPECT_EQ(Base.Metrics.OutputHash, Mut.Metrics.OutputHash);
  EXPECT_FALSE(Base.Output.empty()) << "workload produced no output";
  // The plan is live, not vacuous: part I moved objects onto special TIBs.
  EXPECT_GT(Mut.OnSpecial, 0u) << "no object sits on a special TIB";
}

TEST_P(WorkloadParity, MutationFindsAPlan) {
  auto All = makeAllWorkloads();
  Workload &W = *All[static_cast<size_t>(GetParam())];
  OfflineConfig Cfg;
  OfflineResult R = runOfflinePipeline(W, Cfg);
  EXPECT_FALSE(R.Plan.Classes.empty()) << W.name();
  EXPECT_GE(R.Plan.numHotStates(), 1u);
}

TEST_P(WorkloadParity, DeterministicAcrossRuns) {
  auto All = makeAllWorkloads();
  Workload &W = *All[static_cast<size_t>(GetParam())];
  RunResult A = runOnce(W, false, nullptr, 0.1);
  RunResult B = runOnce(W, false, nullptr, 0.1);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Metrics.TotalCycles, B.Metrics.TotalCycles);
  EXPECT_EQ(A.Metrics.Insts, B.Metrics.Insts);

  // Mutation on, with the offline plan and OLC: the same repeat-run
  // determinism, code bytes included.
  OfflineConfig Cfg;
  OfflineResult R = runOfflinePipeline(W, Cfg);
  RunResult MA = runOnce(W, true, &R.Plan, 0.1);
  RunResult MB = runOnce(W, true, &R.Plan, 0.1);
  EXPECT_EQ(MA.Output, MB.Output);
  EXPECT_EQ(MA.Metrics.TotalCycles, MB.Metrics.TotalCycles);
  EXPECT_EQ(MA.Metrics.Insts, MB.Metrics.Insts);
  EXPECT_EQ(MA.Metrics.CodeBytes, MB.Metrics.CodeBytes);
}

TEST_P(WorkloadParity, AuditedRunIsClean) {
  // The paper's own programs under the consistency auditor, which the
  // deployment attaches before the plan install: the offline plan with its
  // OLC database installed at startup, and the online controller, which the
  // VM steps after every call of the drive as in `dchm_run run --online`.
  auto All = makeAllWorkloads();
  Workload &W = *All[static_cast<size_t>(GetParam())];
  MutationPlan Plan = runOfflinePipeline(W, OfflineConfig{}).Plan;
  for (bool Online : {false, true}) {
    DeployHarness H;
    H.Audit = [](VirtualMachine &VM) {
      return std::make_unique<ConsistencyAuditor>(VM, 64);
    };
    Deployment D(W.assemble(), W.vmOptions(),
                 Online ? PlanSource(OnlineMutationController::Config{})
                        : PlanSource(Plan),
                 std::move(H));
    auto &Auditor = static_cast<ConsistencyAuditor &>(*D.audit());
    VirtualMachine &VM = D.vm();
    D.drive(0.3);
    Auditor.auditNow("end of run");
    EXPECT_EQ(Auditor.violationCount(), 0u)
        << (Online ? "online: " : "offline: ") << Auditor.report();
    EXPECT_GT(Auditor.auditsRun(), 1u);
    // The audits covered live mutation, not an idle plan.
    EXPECT_GT(VM.metrics().Mutation.ObjectTibSwings, 0u)
        << (Online ? "online" : "offline");
    expectStampedBodies(VM.program(), Online ? "online" : "offline");
  }
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
  OfflineResult R = runOfflinePipeline(*W, Cfg);
  RunResult Base = runOnce(*W, false, nullptr, 1.0);
  RunResult Mut = runOnce(*W, true, &R.Plan, 1.0);
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
    OfflineResult R = runOfflinePipeline(*W, Cfg);
    RunResult Base = runOnce(*W, false, nullptr, 1.0);
    RunResult Mut = runOnce(*W, true, &R.Plan, 1.0);
    EXPECT_LT(Mut.Metrics.TotalCycles, Base.Metrics.TotalCycles) << W->name();
  }
}

TEST(WorkloadOverheads, CodeSizeIncreaseIsBounded) {
  // Figure 10: compiled code growth stays small (paper: < 8% for the
  // applications; our micro-scale programs allow a little more headroom).
  auto All = makeAllWorkloads();
  for (auto &W : All) {
    OfflineConfig Cfg;
    OfflineResult R = runOfflinePipeline(*W, Cfg);
    RunResult Base = runOnce(*W, false, nullptr, 1.0);
    RunResult Mut = runOnce(*W, true, &R.Plan, 1.0);
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
    OfflineResult R = runOfflinePipeline(*W, Cfg);
    RunResult Mut = runOnce(*W, true, &R.Plan, 0.3);
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
  OfflineResult R = runOfflinePipeline(*W, Cfg);
  auto Run = [&](bool Mutation) {
    VMOptions Opts = W->vmOptions();
    Opts.EnableMutation = Mutation;
    Opts.Adaptive.SampleInterval = 70; // sparse, Jikes-timer-like sampling
    Deployment Jbb(W->assemble(), Opts, R.Plan);
    W->initVm(Jbb.vm());
    return W->runWarehouseWindows(Jbb.vm(), 6, 3'000'000, 0);
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
    Deployment Jbb(W->assemble(), VMOptions());
    W->initVm(Jbb.vm());
    return W->runWarehouseWindows(Jbb.vm(), 3, 2'000'000, 500'000);
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
