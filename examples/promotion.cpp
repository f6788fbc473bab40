//===-- examples/promotion.cpp - Run-time variant behavior ---------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// The paper's "run-time variant behavior, which cannot be captured using
// source code transformations": objects transition between states over
// their lifetime (a salary employee gets promoted) and are dynamically
// re-classed from one implicit derived class to a peer. This example drives
// a population of employees through promotions and watches the dynamic
// class hierarchy (counts of objects per dynamically mutated class) evolve.
//
//===----------------------------------------------------------------------===//

#include "online/Deployment.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <map>

using namespace dchm;

int main() {
  std::printf("DCHM promotion example: objects migrating between implicit "
              "derived classes\n");
  std::printf("---------------------------------------------------------------"
              "--------\n");

  // Reuse the SalaryDB program; derive its plan automatically.
  auto W = makeSalaryDb();
  OfflineConfig Cfg;
  OfflineResult R = runOfflinePipeline(*W, Cfg);

  VMOptions Opts = W->vmOptions();
  Opts.Adaptive.AcceleratedMutableHotness = true;
  Deployment Run(W->assemble(), Opts, R.Plan);
  VirtualMachine &VM = Run.vm();
  Program &P = Run.program();

  ClassId SalaryEmp = P.findClass("SalaryEmployee");
  MethodId Ctor = P.findMethod(SalaryEmp, "<init>");
  MethodId Raise = P.findMethod(SalaryEmp, "raise");
  FieldId Grade = P.findField(SalaryEmp, "grade");
  ClassInfo &C = P.cls(SalaryEmp);

  // Hire 12 employees at grade 0.
  std::vector<Object *> Staff;
  for (int I = 0; I < 12; ++I) {
    Object *E = VM.heap().allocateInstance(C, C.ClassTib);
    VM.call(Ctor, {valueR(E), valueI(0)});
    Staff.push_back(E);
  }

  auto Census = [&](const char *When) {
    std::map<int, int> ByState; // -1 = class TIB (cold state)
    for (Object *E : Staff)
      ByState[E->tib()->StateIndex]++;
    std::printf("%-26s dynamic hierarchy:", When);
    for (auto [State, Count] : ByState) {
      if (State < 0)
        std::printf("  SalaryEmployee x%d", Count);
      else
        std::printf("  SalaryEmployeeGrade%lld x%d",
                    static_cast<long long>(
                        R.Plan.Classes[0].HotStates[static_cast<size_t>(State)]
                            .InstanceVals[0]
                            .I),
                    Count);
    }
    std::printf("\n");
  };

  Census("hired (grade 0):");

  // Yearly cycle: everyone gets a raise; every third year, promotions.
  for (int Year = 1; Year <= 4; ++Year) {
    for (Object *E : Staff)
      VM.call(Raise, {valueR(E)});
    // Promote a third of the staff by one grade (state transition!).
    for (size_t I = 0; I < Staff.size(); I += 3) {
      // SalaryDB has no setter: store `emp.grade = g + 1` and fire part I
      // of the distributed mutation algorithm, as the interpreter would.
      int64_t G = Staff[I]->get(P.field(Grade).Slot).I;
      Staff[I]->set(P.field(Grade).Slot, valueI(G + 1));
      VM.mutation().onInstanceStateStore(Staff[I], P.field(Grade));
    }
    char Label[64];
    std::snprintf(Label, sizeof(Label), "after year %d:", Year);
    Census(Label);
  }

  std::printf("\nEach census line is the paper's 'dynamic class hierarchy': "
              "the original classes plus whichever SalaryEmployeeGrade[g] "
              "classes currently have instances. TIB re-points so far: %llu; "
              "raise() executed via the matching specialized code each time "
              "(specialized compiles: %u).\n",
              static_cast<unsigned long long>(
                  VM.mutation().stats().ObjectTibSwings),
              VM.compiler().stats().SpecialCompiles);
  return 0;
}
