//===-- examples/zoo.cpp - The hungry polar bear ---------------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// The paper's introductory example (Figure 1): a zoo class hierarchy where a
// polar bear's hunger is run-time state. Conventional languages cannot move
// Quinn between `Polar` and an implicit `Hungry Polar Bear` class — dynamic
// class hierarchy mutation does exactly that: when `hungry` flips, Quinn's
// TIB pointer moves between special TIBs, and the overloaded openCage()
// dispatches to code specialized for the current state with no value test.
//
// This example writes the hierarchy in MiniVM assembly and its mutation plan
// by hand (no offline pipeline) to show the plan API, and inspects the TIBs
// as the state changes.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace dchm;

int main() {
  std::printf("DCHM zoo example: the hungry polar bear (paper Figure 1)\n");
  std::printf("--------------------------------------------------------\n");

  // ZooAnimal <- Bear <- Polar, with Polar's `hungry` as the state field.
  // openCage() returns 1 (door opens) for fed bears, 0 (refused) for
  // hungry ones: the state-dependent method of the paper's story.
  AssemblyResult Zoo = assembleProgram(R"(
    class ZooAnimal {
      ctor <init>() {
        ret
      }
    }
    class Bear extends ZooAnimal {
    }
    class Polar extends Bear {
      field hungry: i64 private
      ctor <init>(%h: i64) {
        callspecial ZooAnimal.<init>(%this)
        putfield %this, Polar.hungry, %h
        ret
      }
      method openCage() -> i64 {
        %h = getfield %this, Polar.hungry
        cbnz %h, @refuse
        %open = consti 1
        ret %open
      @refuse:
        %shut = consti 0
        ret %shut
      }
      method feed() {
        %fed = consti 0
        putfield %this, Polar.hungry, %fed
        ret
      }
      method getHungry() {
        %hungry = consti 1
        putfield %this, Polar.hungry, %hungry
        ret
      }
    }
  )");
  Program &P = *Zoo.P;
  ProgramIds Ids(P);
  ClassId Polar = Ids.cls("Polar");
  FieldId Hungry = Ids.field("Polar", "hungry");
  MethodId PolarCtor = Ids.method("Polar", "<init>");
  MethodId OpenCage = Ids.method("Polar", "openCage");
  MethodId Feed = Ids.method("Polar", "feed");
  MethodId GetHungry = Ids.method("Polar", "getHungry");

  // Handwritten mutation plan: Polar is mutable on `hungry`, with two hot
  // states — fed (0) and hungry (1). The hungry state *is* the implicit
  // "Hungry Polar Bear" class of Figure 1.
  MutationPlan Plan;
  MutableClassPlan CP;
  CP.Cls = Polar;
  CP.InstanceStateFields = {Hungry};
  HotState Fed, HungryState;
  Fed.InstanceVals = {valueI(0)};
  HungryState.InstanceVals = {valueI(1)};
  CP.HotStates = {Fed, HungryState};
  CP.MutableMethods = {OpenCage};
  Plan.Classes.push_back(CP);

  VMOptions Opts;
  Opts.Adaptive.AcceleratedMutableHotness = true; // specialize right away
  VirtualMachine VM(P, Opts);
  VM.setMutationPlan(&Plan);

  // Quinn is born fed.
  ClassInfo &PolarCls = P.cls(Polar);
  Object *Quinn = VM.heap().allocateInstance(PolarCls, PolarCls.ClassTib);
  VM.call(PolarCtor, {valueR(Quinn), valueI(0)});

  auto Describe = [&](const char *Event) {
    const TIB *T = Quinn->Tib;
    const char *Klass =
        !T->isSpecial()
            ? "Polar (class TIB)"
            : (T->StateIndex == 0 ? "Polar[fed] (special TIB 0)"
                                  : "Hungry Polar Bear (special TIB 1)");
    int64_t Door = VM.call(OpenCage, {valueR(Quinn)}).I;
    std::printf("%-28s -> dynamic class: %-32s cage door: %s\n", Event, Klass,
                Door ? "OPENS" : "refused");
  };

  Describe("Quinn constructed (fed)");
  VM.call(GetHungry, {valueR(Quinn)});
  Describe("feeding time approaches");
  VM.call(Feed, {valueR(Quinn)});
  Describe("zookeeper feeds Quinn");

  std::printf("\nBehind the scenes: openCage() was compiled once per hot "
              "state; the object's TIB pointer moved between the class's "
              "special TIBs at each state-field assignment, so dispatch "
              "needed no hunger test at all (specialized code: %u versions, "
              "TIB re-points: %llu).\n",
              VM.compiler().stats().SpecialCompiles,
              static_cast<unsigned long long>(
                  VM.mutation().stats().ObjectTibSwings));
  return 0;
}
