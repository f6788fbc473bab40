//===-- examples/online.cpp - Fully-online mutation ----------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// The paper's section 9 future work, running: no offline profiling step at
// all. A single VM starts cold, profiles itself, derives state fields and
// hot states in-flight, and flips mutation on mid-run (the VM steps the
// controller after each call). It prints the phase timeline and the
// cycles-per-batch curve, which visibly drops after activation.
//
//===----------------------------------------------------------------------===//

#include "online/Deployment.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace dchm;

int main() {
  std::printf("DCHM online example: the section-9 'complete online Java "
              "solution'\n");
  std::printf("----------------------------------------------------------\n");

  OnlineMutationController::Config Cfg;
  Cfg.HotProfileCycles = 1'500'000;
  Cfg.ValueProfileCycles = 1'500'000;
  Deployment Run(makeSalaryDb()->assemble(), {}, Cfg);
  VirtualMachine &VM = Run.vm();
  const OnlineMutationController &Ctl = *Run.controller();

  ProgramIds Ids(Run.program());
  VM.call(Ids.method("TestDriver", "init"), {valueI(400)});
  MethodId RunBatch = Ids.method("TestDriver", "runBatch");

  auto LastPhase = Ctl.phase();
  uint64_t WindowStart = VM.totalCycles();
  const int BatchesPerWindow = 40;
  std::printf("\n%-8s %-16s %s\n", "window", "phase", "cycles/batch");
  for (int Window = 0; Window < 12; ++Window) {
    for (int B = 0; B < BatchesPerWindow; ++B) {
      VM.call(RunBatch, {valueI(4)});
      if (Ctl.phase() != LastPhase) {
        std::printf("   >>> phase transition: %s -> %s (cycle %llu)\n",
                    phaseName(LastPhase), phaseName(Ctl.phase()),
                    static_cast<unsigned long long>(VM.totalCycles()));
        LastPhase = Ctl.phase();
      }
    }
    uint64_t Now = VM.totalCycles();
    std::printf("%-8d %-16s %llu\n", Window + 1, phaseName(Ctl.phase()),
                static_cast<unsigned long long>((Now - WindowStart) /
                                                BatchesPerWindow));
    WindowStart = Now;
  }

  std::printf("\nderived plan: %zu mutable class(es), %zu hot states; "
              "OLC entries: %zu\n",
              Ctl.plan().Classes.size(), Ctl.plan().numHotStates(),
              VM.olc().Entries.size());
  std::printf("objects migrated to special TIBs: %llu\n",
              static_cast<unsigned long long>(
                  VM.mutation().stats().ObjectTibSwings));
  return 0;
}
