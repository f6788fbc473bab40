//===-- examples/logicsim.cpp - Metamorphic logic simulation -------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// The workload that inspired the paper (Maurer's metamorphic programming
// logic simulator): gates whose eval() behavior is decided by a per-gate
// `kind` state field. Runs the SimLogic benchmark with the full automatic
// pipeline and shows what the offline analysis discovered.
//
//===----------------------------------------------------------------------===//

#include "online/Deployment.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace dchm;

int main() {
  std::printf("DCHM logic simulator example (Maurer-style metamorphic sim)\n");
  std::printf("-----------------------------------------------------------\n");
  auto W = makeSimLogic();

  OfflineConfig Cfg;
  OfflineResult R = runOfflinePipeline(*W, Cfg);

  auto P = W->buildProgram();
  std::printf("\noffline analysis found:\n");
  std::printf("  hottest methods:\n");
  for (int I = 0; I < 4; ++I) {
    MethodId M = R.Profile.Ranked[static_cast<size_t>(I)];
    if (R.Profile.hotness(M) < 0.001)
      break;
    std::printf("    %5.1f%%  %s.%s\n", 100.0 * R.Profile.hotness(M),
                P->cls(P->method(M).Owner).Name.c_str(),
                P->method(M).Name.c_str());
  }
  static const char *KindNames[] = {"AND3", "OR3", "XOR3", "MAJ3"};
  for (const MutableClassPlan &CP : R.Plan.Classes) {
    std::printf("  mutable class %s with %zu hot states:\n",
                P->cls(CP.Cls).Name.c_str(), CP.HotStates.size());
    for (const HotState &HS : CP.HotStates) {
      if (P->cls(CP.Cls).Name == "Gate" && !HS.InstanceVals.empty()) {
        int64_t K = HS.InstanceVals[0].I;
        std::printf("    kind=%lld (%s), %4.1f%% of gates\n",
                    static_cast<long long>(K),
                    K >= 0 && K < 4 ? KindNames[K] : "?", 100.0 * HS.Weight);
      } else {
        std::printf("    (static state), weight %4.1f%%\n", 100.0 * HS.Weight);
      }
    }
  }

  auto Run = [&](bool Mutation) {
    VMOptions Opts = W->vmOptions();
    Opts.EnableMutation = Mutation;
    Deployment Sim(W->assemble(), Opts, R.Plan);
    Sim.drive(1.0);
    uint64_t Cycles = Sim.vm().metrics().TotalCycles;
    std::printf("  %-9s %12llu cycles, net checksum %s\n",
                Mutation ? "mutated:" : "baseline:",
                static_cast<unsigned long long>(Cycles),
                Sim.vm().interp().output().c_str());
    return Cycles;
  };

  std::printf("\nsimulating (each gate's eval() dispatches through its "
              "kind-state TIB):\n");
  uint64_t Base = Run(false);
  uint64_t Mut = Run(true);
  std::printf("\nspeedup: %.1f%% — every gate executes a gate-kernel "
              "specialized to its gate kind, with no kind dispatch chain.\n",
              100.0 * (static_cast<double>(Base) / static_cast<double>(Mut) -
                       1.0));
  return 0;
}
