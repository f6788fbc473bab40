//===-- bench/bench_degradation.cpp - Graceful degradation bench --------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// Host-side benchmark of the graceful-degradation machinery
// (docs/degradation.md): plan retirement and the code/TIB budget.
//
// Part A measures *plan retirement* on SalaryDB. First the prologue
// round trip: installing, retiring, and re-installing the plan before the
// run starts must leave a simulated run bit-identical to plain
// installation (checked on every run — retirement is a true inverse of
// installation). Then the warmed retirement: after a full mutated run the
// plan is retired with the heap populated and every special compiled,
// and we record the stop-the-world pause (host wall time), the simulated
// mutation cycles it charged, the objects swung back to class TIBs, and
// what epoch-based reclamation then recovered.
//
// Part B measures the *code/TIB budget* on SalaryDB (offline-derived
// plan) and a SPECjbb2000-like run (shared-screen plan). An unlimited run
// establishes the natural specialized footprint; then runs at 100%, 50%,
// and 25% of that footprint show how many hot states the benefit-ranked
// eviction demotes, the steady-state footprint, and the simulated-cycle
// cost of degrading. Output hashes must match the unlimited run in every
// budget configuration: degradation trades speed for space, never
// correctness.
//
// Results go to stdout and, machine-readable, to BENCH_degrade.json.
//
// Flags: --scale=F  (workload scale, default 1.0)
//        --repeat=R (pause-timing repetitions, min taken; default 5)
//        --check    (small CI-friendly mode; equivalence assertions only)
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "core/VM.h"
#include "support/Parse.h"
#include "support/Timer.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace dchm;
using namespace dchm::bench;

namespace {

bool sameSimulatedRun(const RunMetrics &A, const RunMetrics &B) {
  return A.OutputHash == B.OutputHash && A.Insts == B.Insts &&
         A.Invocations == B.Invocations && A.ExecCycles == B.ExecCycles &&
         A.CompileCycles == B.CompileCycles &&
         A.SpecialCompileCycles == B.SpecialCompileCycles &&
         A.GcCycles == B.GcCycles && A.MutationCycles == B.MutationCycles &&
         A.TotalCycles == B.TotalCycles;
}

/// One SalaryDB run. RoundTrip installs, retires, and re-installs the plan
/// before driving (the prologue round trip); RetireAtEnd retires the plan
/// after the drive with the heap warm and records the pause.
struct SalaryRun {
  RunMetrics M;
  size_t FootprintBytes = 0;
  double RetirePauseSec = 0.0;
  uint64_t RetireMutationCycles = 0; ///< simulated cycles charged by retire
  uint64_t ObjectsSwungBack = 0;
  uint64_t ReclaimedTibs = 0;
  uint64_t ReclaimedBodies = 0;
};

SalaryRun runSalary(Workload &W, const MutationPlan &Plan,
                    const OlcDatabase &Olc, double Scale, size_t Budget,
                    bool RoundTrip, bool RetireAtEnd) {
  auto P = W.buildProgram();
  VMOptions Opts;
  Opts.HeapBytes = heapBytesFor(W.name());
  Opts.CodeBudgetBytes = Budget;
  VirtualMachine VM(*P, Opts);
  VM.setMutationPlan(&Plan);
  VM.setOlcDatabase(&Olc);
  if (RoundTrip) {
    VM.retireMutationPlan();
    VM.setMutationPlan(&Plan);
  }
  W.driveScaled(VM, Scale);

  SalaryRun R;
  R.M = VM.metrics();
  R.FootprintBytes = VM.mutation().specialFootprintBytes();
  if (RetireAtEnd) {
    uint64_t SwingsBefore = VM.mutation().stats().ObjectTibSwings;
    uint64_t MutBefore = VM.metrics().MutationCycles;
    Timer Pause;
    VM.retireMutationPlan();
    R.RetirePauseSec = Pause.seconds();
    R.ObjectsSwungBack = VM.mutation().stats().ObjectTibSwings - SwingsBefore;
    R.RetireMutationCycles = VM.metrics().MutationCycles - MutBefore;
    VM.reclaimRetired();
    R.ReclaimedTibs = P->reclaimedTibCount();
    R.ReclaimedBodies = P->reclaimedBodyCount();
  }
  return R;
}

/// Two hot screen states for the jbb-like run:
/// both instance-dependent, so both are budget-evictable.
MutationPlan makeScreenPlan(Program &P) {
  ProgramIds Ids(P);
  MutableClassPlan CP;
  CP.Cls = Ids.cls("DisplayScreen");
  CP.InstanceStateFields = {Ids.field("DisplayScreen", "rows"),
                            Ids.field("DisplayScreen", "cols")};
  HotState S0, S1;
  S0.InstanceVals = {valueI(24), valueI(80)};
  S1.InstanceVals = {valueI(25), valueI(80)};
  CP.HotStates = {S0, S1};
  CP.MutableMethods = {Ids.method("DisplayScreen", "putText"),
                       Ids.method("DisplayScreen", "clear")};
  MutationPlan Plan;
  Plan.Classes.push_back(CP);
  return Plan;
}

struct BudgetPoint {
  const char *Name;
  size_t Budget = 0; ///< 0 = unlimited
  RunMetrics M;
  size_t FootprintBytes = 0;
  bool Fits = true;
};

RunMetrics runJbb(Workload &W, double Scale, size_t Budget,
                  size_t &FootprintOut) {
  auto P = W.buildProgram();
  // Resolve the plan against this run's own Program instance.
  MutationPlan Plan = makeScreenPlan(*P);
  VMOptions Opts;
  Opts.HeapBytes = heapBytesFor(W.name());
  Opts.Adaptive.AcceleratedMutableHotness = true;
  Opts.CodeBudgetBytes = Budget;
  VirtualMachine VM(*P, Opts);
  VM.setMutationPlan(&Plan);
  W.driveScaled(VM, Scale);
  RunMetrics M = VM.metrics();
  FootprintOut = VM.mutation().specialFootprintBytes();
  return M;
}

/// Budget points at 100%, 50%, and 25% of the unlimited footprint.
std::vector<BudgetPoint> budgetLadder(size_t Unlimited) {
  std::vector<BudgetPoint> Pts(4);
  Pts[0].Name = "unlimited";
  Pts[1].Name = "100%";
  Pts[1].Budget = std::max<size_t>(Unlimited, 1);
  Pts[2].Name = "50%";
  Pts[2].Budget = std::max<size_t>(Unlimited / 2, 1);
  Pts[3].Name = "25%";
  Pts[3].Budget = std::max<size_t>(Unlimited / 4, 1);
  return Pts;
}

void printBudgetTable(const char *Title, const std::vector<BudgetPoint> &Pts,
                      bool &Ok) {
  const RunMetrics &Ref = Pts[0].M;
  std::printf("%s\n", Title);
  std::printf("  %-10s %12s %12s %10s %12s %6s\n", "budget", "limit-B",
              "footprint-B", "evictions", "mut-cycles", "fits");
  for (const BudgetPoint &P : Pts) {
    std::printf("  %-10s %12zu %12zu %10llu %12llu %6s\n", P.Name, P.Budget,
                P.FootprintBytes,
                static_cast<unsigned long long>(P.M.Mutation.StateEvictions),
                static_cast<unsigned long long>(P.M.MutationCycles),
                P.Fits ? "yes" : "NO");
    if (P.M.OutputHash != Ref.OutputHash) {
      std::printf("  MISMATCH: %s budget changed program output\n", P.Name);
      Ok = false;
    }
    if (!P.Fits)
      Ok = false;
  }
  std::printf("\n");
}

} // namespace

int main(int argc, char **argv) {
  double Scale = 1.0;
  int Repeat = 5;
  bool CheckOnly = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--scale=", 8) == 0)
      Scale = positiveRealFlag("--scale", argv[I] + 8, 1e6);
    else if (std::strncmp(argv[I], "--repeat=", 9) == 0)
      Repeat = static_cast<int>(intFlag("--repeat", argv[I] + 9, 1, INT_MAX));
    else if (std::strcmp(argv[I], "--check") == 0)
      CheckOnly = true;
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[I]);
      return 1;
    }
  }
  if (CheckOnly) {
    Repeat = std::min(Repeat, 2);
    Scale = std::min(Scale, 0.25);
  }
  const double JbbScale = CheckOnly ? 0.05 : 0.25;

  printHeader("degradation",
              "Plan retirement and code/TIB budget (graceful degradation)");
  bool Ok = true;

  // --- Part A: retirement on SalaryDB --------------------------------------
  auto Salary = makeSalaryDb();
  OfflineConfig Cfg;
  Cfg.HotStateMinFraction = 0.05;
  OfflineResult Off = runOfflinePipeline(*Salary, Cfg);
  OlcDatabase Olc;
  {
    auto P = Salary->buildProgram();
    Olc = analyzeObjectLifetimeConstants(*P, Off.Plan);
  }

  SalaryRun Ref =
      runSalary(*Salary, Off.Plan, Olc, Scale, 0, false, false);
  SalaryRun Trip =
      runSalary(*Salary, Off.Plan, Olc, Scale, 0, true, false);
  std::printf("SalaryDB, scale %.2f:\n", Scale);
  if (!sameSimulatedRun(Ref.M, Trip.M)) {
    std::printf("  MISMATCH: install/retire/re-install prologue round trip "
                "diverged from plain installation\n");
    Ok = false;
  } else {
    std::printf("  prologue install->retire->re-install round trip: "
                "bit-identical (hash %016llx)\n",
                static_cast<unsigned long long>(Ref.M.OutputHash));
  }

  SalaryRun Warm;
  for (int R = 0; R < Repeat; ++R) {
    SalaryRun Res =
        runSalary(*Salary, Off.Plan, Olc, Scale, 0, false, true);
    if (R == 0 || Res.RetirePauseSec < Warm.RetirePauseSec)
      Warm = Res;
  }
  std::printf("  warmed retirement (best of %d): pause %.1f us "
              "(%llu simulated mutation cycles), %llu objects swung back, "
              "%llu TIBs + %llu bodies reclaimed\n\n",
              Repeat, Warm.RetirePauseSec * 1e6,
              static_cast<unsigned long long>(Warm.RetireMutationCycles),
              static_cast<unsigned long long>(Warm.ObjectsSwungBack),
              static_cast<unsigned long long>(Warm.ReclaimedTibs),
              static_cast<unsigned long long>(Warm.ReclaimedBodies));
  if (Warm.ObjectsSwungBack == 0 && Ref.M.Mutation.ObjectTibSwings > 0) {
    std::printf("  MISMATCH: warmed retirement swung no objects back\n");
    Ok = false;
  }

  // --- Part B: code/TIB budget ladder --------------------------------------
  std::vector<BudgetPoint> SalaryPts = budgetLadder(Ref.FootprintBytes);
  for (BudgetPoint &P : SalaryPts) {
    SalaryRun R = runSalary(*Salary, Off.Plan, Olc, Scale, P.Budget, false,
                            false);
    P.M = R.M;
    P.FootprintBytes = R.FootprintBytes;
    P.Fits = P.Budget == 0 || P.FootprintBytes <= P.Budget;
  }
  char Title[128];
  std::snprintf(Title, sizeof(Title),
                "SalaryDB budget ladder (unlimited footprint %zu B):",
                Ref.FootprintBytes);
  printBudgetTable(Title, SalaryPts, Ok);

  auto Jbb = makeJbb(JbbVariant::Jbb2000);
  size_t JbbFree = 0;
  RunMetrics JbbRef = runJbb(*Jbb, JbbScale, 0, JbbFree);
  std::vector<BudgetPoint> JbbPts = budgetLadder(JbbFree);
  JbbPts[0].M = JbbRef;
  JbbPts[0].FootprintBytes = JbbFree;
  for (size_t I = 1; I < JbbPts.size(); ++I) {
    size_t F = 0;
    JbbPts[I].M = runJbb(*Jbb, JbbScale, JbbPts[I].Budget, F);
    JbbPts[I].FootprintBytes = F;
    JbbPts[I].Fits = F <= JbbPts[I].Budget;
  }
  std::snprintf(Title, sizeof(Title),
                "SPECjbb2000-like shared-screen budget ladder (unlimited "
                "footprint %zu B, scale %.2f):",
                JbbFree, JbbScale);
  printBudgetTable(Title, JbbPts, Ok);

  // --- BENCH_degrade.json ---------------------------------------------------
  JsonWriter J;
  J.beginObject();
  J.field("benchmark", "degradation");
  J.field("scale", Scale);
  J.field("repeat", static_cast<int64_t>(Repeat));
  J.beginArray("retirement");
  J.beginArrayObject();
  J.field("workload", "SalaryDB");
  J.field("round_trip_identical", sameSimulatedRun(Ref.M, Trip.M));
  J.field("retire_pause_ns", Warm.RetirePauseSec * 1e9);
  J.field("retire_mutation_cycles", Warm.RetireMutationCycles);
  J.field("objects_swung_back", Warm.ObjectsSwungBack);
  J.field("reclaimed_tibs", Warm.ReclaimedTibs);
  J.field("reclaimed_bodies", Warm.ReclaimedBodies);
  J.field("plan_retirements",
          static_cast<uint64_t>(Warm.M.Mutation.PlanRetirements));
  J.field("output_hash", Ref.M.OutputHash);
  J.field("total_cycles", Ref.M.TotalCycles);
  J.endObject();
  J.endArray();
  for (const auto *Pts : {&SalaryPts, &JbbPts}) {
    J.beginArray(Pts == &SalaryPts ? "budget_salarydb" : "budget_jbb_screens");
    const RunMetrics &Base = (*Pts)[0].M;
    for (const BudgetPoint &P : *Pts) {
      J.beginArrayObject();
      J.field("budget", P.Name);
      J.field("budget_bytes", static_cast<uint64_t>(P.Budget));
      J.field("footprint_bytes", static_cast<uint64_t>(P.FootprintBytes));
      J.field("evictions",
              static_cast<uint64_t>(P.M.Mutation.StateEvictions));
      J.field("mutation_cycles", P.M.MutationCycles);
      J.field("total_cycles", P.M.TotalCycles);
      J.field("degrade_cycle_overhead_percent",
              Base.TotalCycles
                  ? 100.0 * (static_cast<double>(P.M.TotalCycles) /
                                 static_cast<double>(Base.TotalCycles) -
                             1.0)
                  : 0.0);
      J.field("fits_budget", P.Fits);
      J.field("output_matches", P.M.OutputHash == Base.OutputHash);
      J.endObject();
    }
    J.endArray();
  }
  J.field("equivalent", Ok);
  J.endObject();
  J.writeFile("BENCH_degrade.json");

  std::printf("%s (BENCH_degrade.json written)\n",
              Ok ? "Degradation preserved program semantics in every "
                   "configuration."
                 : "EQUIVALENCE FAILURE");
  return Ok ? 0 : 1;
}
