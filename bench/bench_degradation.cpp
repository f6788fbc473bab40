//===-- bench/bench_degradation.cpp - Plan retirement pause -------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// Host-side benchmark of plan retirement (docs/degradation.md) on
// SalaryDB: after a full mutated run the plan is retired with the heap
// populated and every special compiled, and we record the stop-the-world
// pause (host wall time), the simulated mutation cycles it charged and the
// objects swung back to class TIBs. That retirement is an exact inverse of
// installation is a tier-1 test (WorkloadParity.RetireRoundTrip).
//
// Flags: --scale=F  (workload scale, default 1.0)
//        --repeat=R (pause-timing repetitions, min taken; default 5)
//
//===----------------------------------------------------------------------===//

#include "support/Parse.h"
#include "support/Timer.h"
#include "workloads/Workload.h"

#include <climits>
#include <cstdio>
#include <cstring>

using namespace dchm;

namespace {

/// One SalaryDB run, retired after the drive with the heap warm.
struct RetireRun {
  RunMetrics M;
  double PauseSec = 0.0;
  uint64_t MutationCycles = 0; ///< simulated cycles charged by retire
  uint64_t ObjectsSwungBack = 0;
};

RetireRun runAndRetire(Workload &W, const MutationPlan &Plan, double Scale) {
  WorkloadRun Run(W, W.vmOptions(), &Plan);
  VirtualMachine &VM = Run.vm();
  W.driveScaled(VM, Scale);

  RetireRun R;
  R.M = VM.metrics();
  uint64_t SwingsBefore = VM.mutation().stats().ObjectTibSwings;
  Timer Pause;
  VM.retireMutationPlan();
  R.PauseSec = Pause.seconds();
  R.ObjectsSwungBack = VM.mutation().stats().ObjectTibSwings - SwingsBefore;
  R.MutationCycles = VM.metrics().MutationCycles - R.M.MutationCycles;
  return R;
}

} // namespace

int main(int argc, char **argv) {
  double Scale = 1.0;
  int Repeat = 5;
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--scale=", 8) == 0)
      Scale = positiveRealFlag("--scale", argv[I] + 8, 1e6);
    else if (std::strncmp(argv[I], "--repeat=", 9) == 0)
      Repeat = static_cast<int>(intFlag("--repeat", argv[I] + 9, 1, INT_MAX));
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[I]);
      return 1;
    }
  }

  std::printf("=== DCHM: plan retirement pause (host wall clock) ===\n\n");
  auto Salary = makeSalaryDb();
  OfflineResult Off = runOfflinePipeline(*Salary, OfflineConfig{});
  RetireRun Best;
  for (int R = 0; R < Repeat; ++R) {
    RetireRun Res = runAndRetire(*Salary, Off.Plan, Scale);
    if (R == 0 || Res.PauseSec < Best.PauseSec)
      Best = Res;
  }
  std::printf("SalaryDB, scale %.2f, warmed retirement (best of %d): "
              "pause %.1f us (%llu simulated mutation cycles), %llu objects "
              "swung back\n",
              Scale, Repeat, Best.PauseSec * 1e6,
              static_cast<unsigned long long>(Best.MutationCycles),
              static_cast<unsigned long long>(Best.ObjectsSwungBack));
  return 0;
}
