//===-- bench/dchm_figures.cpp - Every table and figure of the paper ----------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// Regenerates the paper's evaluation in one process: Table 1, Figures 9-15
// and the design-choice ablations. Only simulated numbers are printed, so
// stdout is deterministic and tests/data/figures.golden pins it byte for
// byte (ctest figures_golden).
//
// Every run happens once. The seven baseline-vs-mutation comparisons feed
// Figures 9-12 and the ablation's first two rows; five warehouse runs feed
// Figures 13-15 and Figure 9's SPECjbb bars. The program exits 1 when a
// mutated run's output differs from its baseline (a warehouse run's once
// every run of its variant is topped up to one transaction count) or when
// one of the paper's shape claims (the "Shape check" lines) does not hold.
//
//===----------------------------------------------------------------------===//

#include "online/Deployment.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cstdio>

using namespace dchm;

namespace {

bool Failed = false;

/// Records a claim the figures must satisfy; a false one fails the run.
void require(bool Holds, const std::string &Claim) {
  if (!Holds)
    std::fprintf(stderr, "dchm_figures: check failed: %s\n", Claim.c_str());
  Failed |= !Holds;
}

/// Starts a table or figure, naming it and its caption; sections after the
/// first get a blank line.
void section(const char *Figure, const char *Caption) {
  static bool First = true;
  if (!First)
    std::printf("\n");
  First = false;
  std::printf("=== DCHM reproduction: %s ===\n", Figure);
  std::printf("%s\n", Caption);
  std::printf("(simulated cycles; deterministic cost model; "
              "paper values for comparison)\n\n");
}

/// How much larger New is than Old, in percent.
double percentOver(double New, double Old) {
  return 100.0 * (New / Old - 1.0);
}

/// One VM configuration: the mechanisms a run turns on.
struct RunConfig {
  const char *Label;
  bool Mutation, SpecInlining, Accelerated;
  int TradeoffK;
};

/// The ablation rows. Row 0 is every figure's baseline and row 1 every
/// figure's mutated run, so the ablation reuses those runs. The inliner
/// reads the OLC database only for specialization inlining, so turning
/// that off also takes the OLC database out.
const RunConfig Configs[] = {
    {"baseline (no mutation)", false, false, false, 0},
    {"full system", true, true, false, 0},
    {"no OLC / specialization inlining", true, false, false, 0},
    {"accelerated hotness", true, true, true, 0},
    {"trade-off k = -2 (inline-happy)", true, true, false, -2},
    {"trade-off k = +8 (specialize-happy)", true, true, false, 8},
};
const RunConfig &Baseline = Configs[0];
const RunConfig &FullSystem = Configs[1];
const RunConfig &Accelerated = Configs[3];

/// A deployment of W configured by A, with Plan installed when A mutates.
/// SampleInterval > 1 is the sparse, Jikes-timer-like sampling of the
/// warehouse figures, which lets hotness detection span warehouses.
std::unique_ptr<Deployment> deploy(Workload &W, const MutationPlan &Plan,
                                   const RunConfig &A,
                                   uint64_t SampleInterval) {
  VMOptions Opts = W.vmOptions();
  Opts.EnableMutation = A.Mutation;
  Opts.Inline.EnableSpecializationInlining = A.SpecInlining;
  Opts.Inline.TradeoffK = A.TradeoffK;
  Opts.Adaptive.AcceleratedMutableHotness = A.Accelerated;
  Opts.Adaptive.SampleInterval = SampleInterval;
  return std::make_unique<Deployment>(W.assemble(), Opts, Plan);
}

/// A full-scale run of W under A.
RunMetrics runFull(Workload &W, const MutationPlan &Plan, const RunConfig &A,
                   size_t *OlcFields = nullptr) {
  auto Run = deploy(W, Plan, A, 1);
  Run->drive(1.0);
  if (OlcFields)
    *OlcFields = Run->vm().olc().Entries.size();
  return Run->vm().metrics();
}

/// One workload without and with mutation, under the offline plan.
struct Comparison {
  Workload *W;
  std::string Name;
  MutationPlan Plan;
  RunMetrics Base, Mut;
  size_t OlcFields = 0;
};

/// Derives the plan offline (Figure 3), then runs W at full scale without
/// and with mutation.
Comparison compareRuns(Workload &W) {
  OfflineConfig Cfg;
  Comparison C{&W, W.name(), runOfflinePipeline(W, Cfg).Plan, {}, {}};
  C.Base = runFull(W, C.Plan, Baseline);
  C.Mut = runFull(W, C.Plan, FullSystem, &C.OlcFields);
  require(C.Base.OutputHash == C.Mut.OutputHash,
          C.Name + ": mutation changed program output");
  return C;
}

const Comparison &find(const std::vector<Comparison> &All,
                       const std::string &Name) {
  return *std::find_if(All.begin(), All.end(),
                       [&](const Comparison &C) { return C.Name == Name; });
}

/// One warehouse figure (13-15): one warehouse run eight times, without
/// and with mutation. Early windows absorb the (re)compilation and
/// mutation charges, later windows show the steady-state gain.
struct WarehouseFigure {
  std::vector<JbbWindow> Base, Mut;

  double deltaPercent(size_t I) const {
    return percentOver(Mut[I].Throughput, Base[I].Throughput);
  }
  /// Steady state: mean throughput of the last three windows.
  double steadyPercent() const {
    auto Mean = [](const std::vector<JbbWindow> &Ws) {
      double S = 0;
      for (size_t I = Ws.size() - 3; I < Ws.size(); ++I)
        S += Ws[I].Throughput;
      return S / 3.0;
    };
    return percentOver(Mean(Mut), Mean(Base));
  }
};

/// One warehouse run: its windows, and its deployment kept live so that
/// the run can be topped up and checked once the other runs of its
/// variant have finished.
struct WarehouseRun {
  std::unique_ptr<Deployment> Run;
  std::vector<JbbWindow> Windows;
};

WarehouseRun runWindows(JbbWorkload &W, const MutationPlan &Plan,
                        const RunConfig &A, uint64_t SampleInterval) {
  WarehouseRun R{deploy(W, Plan, A, SampleInterval), {}};
  W.initVm(R.Run->vm());
  R.Windows = W.runWarehouseWindows(R.Run->vm(), /*NumWindows=*/8,
                                    /*WindowCycles=*/3'000'000,
                                    /*WarmupCycles=*/0);
  return R;
}

/// Transparency for the warehouse figures. The windows end on a cycle
/// budget, so the runs of one variant complete different transaction
/// counts in them. After the last window each run is topped up to the
/// largest count of its variant, then TxManager.checkSum must print the
/// same in every run. Nothing is printed to stdout: the figures are the
/// windows alone.
void requireSameChecksum(JbbWorkload &W,
                         const std::vector<WarehouseRun *> &Runs) {
  auto Done = [](const WarehouseRun &R) {
    uint64_t Tx = 0;
    for (const JbbWindow &Win : R.Windows)
      Tx += Win.Transactions;
    return Tx;
  };
  uint64_t Target = 0;
  for (const WarehouseRun *R : Runs)
    Target = std::max(Target, Done(*R));
  std::string First;
  for (WarehouseRun *R : Runs) {
    VirtualMachine &VM = R->Run->vm();
    W.runTransactions(VM, Target - Done(*R));
    VM.call(ProgramIds(VM.program()).method("TxManager", "checkSum"), {});
    if (R == Runs.front())
      First = VM.interp().output();
    require(VM.interp().output() == First,
            W.name() + ": a warehouse run's checksum differs from the "
                       "baseline's at " + std::to_string(Target) +
                       " transactions");
  }
}

void printTable1(const std::vector<Comparison> &All) {
  section("Table 1", "Benchmarks used in the empirical study.");
  const int PaperClasses[] = {3, 3, 5, 2, 22, 81, 65};
  const int PaperMethods[] = {8, 29, 32, 8, 423, 978, 702};
  std::printf("%-12s | %-48s | %7s %7s | %7s %7s\n", "Program", "Description",
              "classes", "methods", "(paper)", "(paper)");
  std::printf("-------------+--------------------------------------------------"
              "+-----------------+----------------\n");
  for (size_t I = 0; I < All.size(); ++I) {
    auto P = All[I].W->buildProgram();
    std::printf("%-12s | %-48s | %7zu %7zu | %7d %7d\n", All[I].Name.c_str(),
                All[I].W->description().c_str(), P->numClasses(),
                P->numMethods(), PaperClasses[I], PaperMethods[I]);
  }
}

/// Figure 9. The SPECjbb pair uses the paper's metric, steady-state
/// warehouse throughput (Figures 13 and 15), not end-to-end cycles.
void printFig9(const std::vector<Comparison> &All, double Jbb2000,
               double Jbb2005) {
  section("Figure 9",
          "Overall performance improvement (speedup %, higher is better; "
          "steady-state warehouse throughput for the SPECjbb pair, as in the "
          "paper).");
  // Paper bar values (SalaryDB/jbb from the text; others read off Figure 9).
  const double Paper[] = {31.4, 15.0, 3.3, 2.9, 4.7, 4.5, 1.9};
  std::printf("%-12s | %9s | %9s | %s\n", "Program", "ours %", "paper %",
              "plan (classes/states, OLC fields)");
  std::printf("-------------+-----------+-----------+----------------------\n");
  double SalaryDb = 0, Others = -1e300;
  for (size_t I = 0; I < All.size(); ++I) {
    const Comparison &C = All[I];
    double Ours = C.Name == "SPECjbb2000"   ? Jbb2000
                  : C.Name == "SPECjbb2005" ? Jbb2005
                                            : percentOver(C.Base.TotalCycles,
                                                          C.Mut.TotalCycles);
    if (C.Name == "SalaryDB")
      SalaryDb = Ours;
    else
      Others = std::max(Others, Ours);
    std::printf("%-12s | %9.2f | %9.1f | %zu/%zu, %zu\n", C.Name.c_str(),
                Ours, Paper[I], C.Plan.Classes.size(), C.Plan.numHotStates(),
                C.OlcFields);
  }
  require(SalaryDb > Others, "Figure 9: SalaryDB has the largest speedup");
  require(Jbb2000 > Jbb2005, "Figure 9: SPECjbb2000 > SPECjbb2005");
  std::printf("\nShape check: SalaryDB largest; jbb2000 > jbb2005.\n");
}

void printFig10(const std::vector<Comparison> &All) {
  section("Figure 10", "Compiled code size increase due to mutation (the "
                       "main contribution is extra specialized versions at "
                       "opt2).");
  std::printf("%-12s | %9s | %12s | %12s | %s\n", "Program", "increase",
              "base bytes", "extra bytes", "special versions");
  std::printf("-------------+-----------+--------------+--------------+------"
              "---\n");
  for (const Comparison &C : All)
    std::printf("%-12s | %8.2f%% | %12zu | %12zu | %u\n", C.Name.c_str(),
                percentOver(C.Mut.CodeBytes, C.Base.CodeBytes),
                C.Base.CodeBytes, C.Mut.CodeBytes - C.Base.CodeBytes,
                C.Mut.Adaptive.Recompilations);
  std::printf("\nPaper: small everywhere (<8%% for the applications). "
              "Not asserted here.\n");
}

/// Figure 11, with the paper's bar labels: the baseline run's compile
/// cycles as a fraction of its total.
void printFig11(const std::vector<Comparison> &All) {
  section("Figure 11",
          "Opt compiler compilation time increase; the bracketed number is "
          "the compilation fraction of total execution time (paper's bar "
          "labels).");
  const double PaperInc[] = {6.0, 7.0, 4.0, 5.0, 2.0, 17.0, 12.0};
  const double PaperFrac[] = {0.5, 0.3, 0.3, 1.0, 2.5, 3.1, 2.3};
  std::printf("%-12s | %10s [%6s] | %10s [%6s]\n", "Program", "ours", "frac",
              "paper", "frac");
  std::printf("-------------+---------------------+--------------------\n");
  for (size_t I = 0; I < All.size(); ++I) {
    const RunMetrics &B = All[I].Base;
    std::printf("%-12s | %9.2f%% [%4.1f%%] | %9.1f%% [%4.1f%%]\n",
                All[I].Name.c_str(),
                percentOver(All[I].Mut.CompileCycles, B.CompileCycles),
                100.0 * static_cast<double>(B.CompileCycles) /
                    static_cast<double>(B.TotalCycles),
                PaperInc[I], PaperFrac[I]);
  }
  std::printf("\nPaper: the SPECjbb pair shows the largest increases. "
              "Not asserted here.\n");
}

void printFig12(const std::vector<Comparison> &All) {
  section("Figure 12", "TIB space increase: bytes of special TIBs created by "
                       "mutation (relative increase in brackets).");
  std::printf("%-12s | %11s [%7s] | %12s\n", "Program", "extra bytes", "rel",
              "class TIBs");
  std::printf("-------------+-----------------------+-------------\n");
  for (const Comparison &C : All) {
    std::printf("%-12s | %11zu [%5.1f%%] | %12zu\n", C.Name.c_str(),
                C.Mut.SpecialTibBytes,
                100.0 * static_cast<double>(C.Mut.SpecialTibBytes) /
                    static_cast<double>(C.Mut.ClassTibBytes),
                C.Mut.ClassTibBytes);
    require(C.Mut.SpecialTibBytes < 1024,
            "Figure 12: " + C.Name + " special-TIB total < 1 KB");
  }
  std::printf("\nPaper: at worst ~1 KB (SPECjbb2000), under 100 B for the "
              "small applications; TIBs are tens of bytes each.\n");
  std::printf("Shape check: every special-TIB total < 1 KB.\n");
}

void printWarehouses(const char *Figure, const char *Caption,
                     const WarehouseFigure &F) {
  section(Figure, Caption);
  std::printf("%-5s | %14s | %14s | %9s\n", "wh", "base tx/s", "mutated tx/s",
              "delta");
  std::printf("------+----------------+----------------+----------\n");
  for (size_t I = 0; I < F.Base.size(); ++I)
    std::printf("wh%-3zu | %14.1f | %14.1f | %+8.3f%%\n", I + 1,
                F.Base[I].Throughput, F.Mut[I].Throughput, F.deltaPercent(I));
  std::printf("\nsteady-state throughput change: %+.2f%%\n",
              F.steadyPercent());
}

/// Figures 13 and 15: a warm-up that gains nothing, then a gain.
void checkWarmup(const std::string &Figure, const WarehouseFigure &F) {
  size_t First = 0;
  while (First < F.Base.size() && F.deltaPercent(First) <= 0)
    ++First;
  require(First > 0 && First < F.Base.size(),
          Figure + ": the windows before the first positive delta are <= 0, "
                   "and there is at least one");
  require(F.steadyPercent() > 0, Figure + ": steady state > 0");
  std::printf("Shape check: every window before the first positive delta "
              "(wh1-wh%zu) is <= 0; steady state > 0.\n",
              First);
}

/// The ablation for one workload. Rows 0 and 1 are C's runs; every row's
/// program output must equal the baseline's.
void printAblation(const Comparison &C) {
  std::printf("-- %s --\n", C.Name.c_str());
  for (const RunConfig &A : Configs) {
    RunMetrics M = &A == &Baseline     ? C.Base
                   : &A == &FullSystem ? C.Mut
                                       : runFull(*C.W, C.Plan, A);
    require(M.OutputHash == C.Base.OutputHash,
            C.Name + ", " + A.Label + ": output differs from the baseline");
    std::printf("  %-38s %12llu cycles  (%+.2f%% vs baseline)\n", A.Label,
                static_cast<unsigned long long>(M.TotalCycles),
                percentOver(C.Base.TotalCycles, M.TotalCycles));
  }
  std::printf("\n");
}

} // namespace

int main(int Argc, char **) {
  if (Argc > 1) {
    std::fprintf(stderr, "usage: dchm_figures (takes no arguments)\n");
    return 1;
  }
  auto Workloads = makeAllWorkloads();
  std::vector<Comparison> All;
  for (auto &W : Workloads)
    All.push_back(compareRuns(*W));

  // Sample intervals tuned so hotness detection spans warehouses and the
  // warm-up of each figure shows (Jikes samples on timer ticks).
  const MutationPlan &Plan2000 = find(All, "SPECjbb2000").Plan;
  const MutationPlan &Plan2005 = find(All, "SPECjbb2005").Plan;
  // Figure 13's baseline is Figure 14's too, so the three SPECjbb2000 runs
  // are checked at one transaction count.
  WarehouseFigure Fig13, Fig14, Fig15;
  {
    auto W = makeJbb(JbbVariant::Jbb2000);
    WarehouseRun Base = runWindows(*W, Plan2000, Baseline, 70);
    WarehouseRun Mut = runWindows(*W, Plan2000, FullSystem, 70);
    WarehouseRun Acc = runWindows(*W, Plan2000, Accelerated, 70);
    requireSameChecksum(*W, {&Base, &Mut, &Acc});
    Fig13 = {Base.Windows, Mut.Windows};
    Fig14 = {Base.Windows, Acc.Windows};
  }
  {
    auto W = makeJbb(JbbVariant::Jbb2005);
    WarehouseRun Base = runWindows(*W, Plan2005, Baseline, 25);
    WarehouseRun Mut = runWindows(*W, Plan2005, FullSystem, 25);
    requireSameChecksum(*W, {&Base, &Mut});
    Fig15 = {Base.Windows, Mut.Windows};
  }

  printTable1(All);
  printFig9(All, Fig13.steadyPercent(), Fig15.steadyPercent());
  printFig10(All);
  printFig11(All);
  printFig12(All);
  printWarehouses("Figure 13",
                  "SPECjbb2000 throughput change due to mutation, per "
                  "warehouse window (8 windows).",
                  Fig13);
  checkWarmup("Figure 13", Fig13);
  printWarehouses("Figure 14",
                  "SPECjbb2000 throughput change with accelerated mutable "
                  "method hotness detection.",
                  Fig14);
  require(Fig14.deltaPercent(0) < 0, "Figure 14: wh1 < 0");
  require(Fig14.deltaPercent(1) > 0, "Figure 14: wh2 > 0");
  std::printf("Shape check: wh1 < 0; wh2 > 0.\n");
  printWarehouses("Figure 15",
                  "SPECjbb2005 throughput change due to mutation, per "
                  "warehouse window (8 windows).",
                  Fig15);
  checkWarmup("Figure 15", Fig15);

  // SalaryDB is specialization-dominated, SPECjbb2000 inlining- and
  // OLC-dominated: where the paper says each mechanism matters.
  section("Ablation", "Contribution of each mechanism (positive = speedup "
                      "over the no-mutation baseline).");
  printAblation(find(All, "SalaryDB"));
  printAblation(find(All, "SPECjbb2000"));
  return Failed ? 1 : 0;
}
