//===-- examples/quickstart.cpp - Library quickstart ---------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// Quickstart: build a small program against the MiniVM API, run the offline
// pipeline to derive a mutation plan automatically, and compare a baseline
// run with a mutated run. This is the paper's SalaryDB experiment end to
// end in ~40 lines of driver code.
//
//===----------------------------------------------------------------------===//

#include "online/Deployment.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace dchm;

int main() {
  std::printf("DCHM quickstart: dynamic class hierarchy mutation on SalaryDB\n");
  std::printf("--------------------------------------------------------------\n");

  // 1. A workload is just a recipe for building a Program (classes, fields,
  //    methods with IR bodies) plus a driver. SalaryDB is the paper's
  //    Figure 2 microbenchmark.
  std::unique_ptr<Workload> W = makeSalaryDb();

  // 2. Offline step (paper Figure 3): profile for hot methods, score state
  //    fields with EQ 1, mine hot states with the value profiler.
  OfflineConfig Cfg;
  OfflineResult Offline = runOfflinePipeline(*W, Cfg);
  {
    auto P = W->buildProgram();
    std::printf("\nderived mutation plan:\n");
    for (const MutableClassPlan &CP : Offline.Plan.Classes) {
      std::printf("  mutable class %s, state fields:",
                  P->cls(CP.Cls).Name.c_str());
      for (FieldId F : CP.InstanceStateFields)
        std::printf(" %s", P->field(F).Name.c_str());
      std::printf(", %zu hot states, mutable methods:",
                  CP.HotStates.size());
      for (MethodId M : CP.MutableMethods)
        std::printf(" %s", P->method(M).Name.c_str());
      std::printf("\n");
    }
  }

  // 3. Baseline run: mutation disabled.
  RunMetrics Base;
  {
    VMOptions Opts = W->vmOptions();
    Opts.EnableMutation = false;
    Deployment Run(W->assemble(), Opts);
    Run.drive(1.0);
    Base = Run.vm().metrics();
    std::printf("\nbaseline:  %12llu cycles (output: %s)\n",
                static_cast<unsigned long long>(Base.TotalCycles),
                Run.vm().interp().output().c_str());
  }

  // 4. Mutated run: the same recipe with the plan installed (and its
  //    object-lifetime constants attached).
  RunMetrics Mut;
  {
    Deployment Run(W->assemble(), W->vmOptions(), Offline.Plan);
    VirtualMachine &VM = Run.vm();
    Run.drive(1.0);
    Mut = VM.metrics();
    std::printf("mutated:   %12llu cycles (output: %s)\n",
                static_cast<unsigned long long>(Mut.TotalCycles),
                VM.interp().output().c_str());
    std::printf("           %llu object TIB re-points, %zu B of special "
                "TIBs, %u recompilations, %u specialized compiles\n",
                static_cast<unsigned long long>(
                    Mut.Mutation.ObjectTibSwings),
                Mut.SpecialTibBytes, Mut.Adaptive.Recompilations,
                VM.compiler().stats().SpecialCompiles);
  }

  double Speedup = 100.0 * (static_cast<double>(Base.TotalCycles) /
                                static_cast<double>(Mut.TotalCycles) -
                            1.0);
  std::printf("\nspeedup: %.1f%%  (paper reports 31.4%%)  output identical: %s\n",
              Speedup, Base.OutputHash == Mut.OutputHash ? "yes" : "NO");
  return 0;
}
