//===-- tests/VmPropertyTest.cpp - Randomized invariant sweeps ----------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// Property tests over the mutation engine:
///
///  1. TIB invariant — after any sequence of constructions, state stores,
///     and method calls, every mutable-class object's TIB pointer is the
///     special TIB of the hot state its fields currently match (or the
///     class TIB when no hot state matches).
///  2. Transparency — mutation on vs off computes identical results for
///     random operation sequences, across adaptive thresholds (so the
///     sequence crosses opt0/opt1/opt2 and the mutation point).
///  3. GC rooting — objects held in host storage are registered as real
///     roots (LocalRootScope) and survive collections mid-test.
///  4. JTOC / IMT sweeps — code-pointer correctness under random static
///     state stores, and IMT-routed interface dispatch under random hot
///     state swings, both with the consistency auditor attached.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "support/Random.h"
#include "testing/ConsistencyAuditor.h"

#include <gtest/gtest.h>

using namespace dchm;
using dchm::test::CounterFixture;

namespace {

/// Checks the part I invariant for one object.
void expectTibInvariant(CounterFixture &Fx, Object *O) {
  const ClassInfo &C = Fx.P->cls(Fx.Counter);
  int64_t Mode = O->get(Fx.P->field(Fx.Mode).Slot).I;
  TIB *Expected = C.ClassTib;
  for (size_t S = 0; S < Fx.Plan.Classes[0].HotStates.size(); ++S)
    if (Fx.Plan.Classes[0].HotStates[S].InstanceVals[0].I == Mode)
      Expected = C.SpecialTibs[S];
  EXPECT_EQ(O->tib(), Expected) << "mode=" << Mode;
}

class TibInvariant : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TibInvariant, HoldsUnderRandomTransitions) {
  CounterFixture Fx;
  VirtualMachine VM(*Fx.P, {});
  VM.setMutationPlan(&Fx.Plan);
  Rng R(GetParam());
  LocalRootScope Objs(VM.heap());
  for (int Step = 0; Step < 300; ++Step) {
    switch (R.nextBelow(Objs.empty() ? 1 : 4)) {
    case 0: // construct with a random mode, hot or cold
      Objs.add(Fx.makeCounter(VM, R.nextInRange(0, 3)));
      break;
    case 1: { // random transition
      Object *O = Objs[R.nextBelow(Objs.size())];
      VM.call(Fx.SetMode, {valueR(O), valueI(R.nextInRange(0, 3))});
      break;
    }
    case 2: { // call the mutable method
      Object *O = Objs[R.nextBelow(Objs.size())];
      VM.call(Fx.Bump, {valueR(O)});
      break;
    }
    default: { // call the non-mutable method
      Object *O = Objs[R.nextBelow(Objs.size())];
      VM.call(Fx.Get, {valueR(O)});
      break;
    }
    }
    for (Object *O : Objs.objects())
      expectTibInvariant(Fx, O);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TibInvariant,
                         ::testing::Range<uint64_t>(1, 13));

/// One random scenario executed with or without mutation; returns the
/// final checksum over all objects (unsigned, so the digest wraps).
uint64_t runScenario(uint64_t Seed, bool Mutation, uint64_t Opt1,
                     uint64_t Opt2) {
  CounterFixture Fx;
  VMOptions Opts;
  Opts.EnableMutation = Mutation;
  Opts.Adaptive.Opt1Threshold = Opt1;
  Opts.Adaptive.Opt2Threshold = Opt2;
  VirtualMachine VM(*Fx.P, Opts);
  VM.setMutationPlan(&Fx.Plan);
  Rng R(Seed);
  LocalRootScope Objs(VM.heap());
  for (int Step = 0; Step < 500; ++Step) {
    switch (R.nextBelow(Objs.empty() ? 1 : 4)) {
    case 0:
      Objs.add(Fx.makeCounter(VM, R.nextInRange(0, 4)));
      break;
    case 1:
      VM.call(Fx.SetMode,
              {valueR(Objs[R.nextBelow(Objs.size())]),
               valueI(R.nextInRange(0, 4))});
      break;
    default:
      VM.call(Fx.Bump, {valueR(Objs[R.nextBelow(Objs.size())])});
      break;
    }
  }
  uint64_t Sum = 0;
  for (Object *O : Objs.objects())
    Sum = Sum * 31 + static_cast<uint64_t>(VM.call(Fx.Get, {valueR(O)}).I);
  return Sum;
}

struct TransparencyCase {
  uint64_t Seed;
  uint64_t Opt1, Opt2;
};

class Transparency : public ::testing::TestWithParam<TransparencyCase> {};

TEST_P(Transparency, MutationInvisibleToSemantics) {
  TransparencyCase TC = GetParam();
  EXPECT_EQ(runScenario(TC.Seed, false, TC.Opt1, TC.Opt2),
            runScenario(TC.Seed, true, TC.Opt1, TC.Opt2));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThresholds, Transparency,
    ::testing::Values(TransparencyCase{1, 300, 3000},
                      TransparencyCase{2, 300, 3000},
                      TransparencyCase{3, 10, 50},   // early mutation point
                      TransparencyCase{4, 10, 50},
                      TransparencyCase{5, 1, 2},     // immediate opt2
                      TransparencyCase{6, 1, 2},
                      TransparencyCase{7, 100000, 200000}, // never promoted
                      TransparencyCase{8, 50, 100},
                      TransparencyCase{9, 5, 500},
                      TransparencyCase{10, 5, 10}));

TEST(GcRooting, LocalRootScopeSurvivesCollectionsMidSweep) {
  // Regression for the old rooting hazard: test objects used to be held
  // only in a host-side vector the collector could not see, and the tests
  // had to size the heap so no GC ever ran. With LocalRootScope the pinned
  // set must survive collections forced mid-sweep by a deliberately tiny
  // heap and heavy garbage churn.
  CounterFixture Fx;
  VMOptions Opts;
  Opts.HeapBytes = 16u << 10;
  VirtualMachine VM(*Fx.P, Opts);
  VM.setMutationPlan(&Fx.Plan);
  uint32_t ModeSlot = Fx.P->field(Fx.Mode).Slot;
  LocalRootScope Roots(VM.heap());
  std::vector<int64_t> Modes;
  for (int I = 0; I < 10; ++I) {
    Roots.add(Fx.makeCounter(VM, I % 4));
    Modes.push_back(I % 4);
    VM.call(Fx.Bump, {valueR(Roots[I])});
  }
  // Churn: every discarded counter is garbage, so the 16 KB heap forces
  // repeated collections while Roots pins the live set.
  for (int I = 0; I < 600; ++I) {
    Fx.makeCounter(VM, I % 4);
    if (I % 50 == 0)
      for (size_t J = 0; J < Roots.size(); ++J)
        expectTibInvariant(Fx, Roots[J]);
  }
  EXPECT_GT(VM.heap().stats().GcCount, 0u);
  for (size_t I = 0; I < Roots.size(); ++I) {
    EXPECT_EQ(Roots[I]->get(ModeSlot).I, Modes[I]) << "object " << I;
    expectTibInvariant(Fx, Roots[I]);
    // Pinned objects stay fully usable after collections.
    int64_t Before = VM.call(Fx.Get, {valueR(Roots[I])}).I;
    VM.call(Fx.Bump, {valueR(Roots[I])});
    EXPECT_GT(VM.call(Fx.Get, {valueR(Roots[I])}).I, Before);
  }
}

class JtocSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JtocSweep, CodePointerTracksStaticState) {
  // Random static-state stores: after every store the JTOC entry for the
  // static mutable method must hold the special code iff the static state
  // matches a hot state with compiled special code, and calls through the
  // CallStatic site must compute globalMode * 7 regardless.
  CounterFixture Fx(true);
  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 5;
  Opts.Adaptive.Opt2Threshold = 20;
  VirtualMachine VM(*Fx.P, Opts);
  ConsistencyAuditor Auditor(VM);
  VM.setAuditHook(&Auditor);
  VM.setMutationPlan(&Fx.Plan);
  FieldInfo &GF = Fx.P->field(Fx.GlobalMode);
  const MethodInfo &M = Fx.P->method(Fx.StaticScale);
  Rng R(GetParam());
  // Warm the static method past the specialization point so the JTOC has
  // special code to swing to.
  VM.call(Fx.DriveStatic, {valueI(64)});
  for (int Step = 0; Step < 200; ++Step) {
    int64_t G = R.nextInRange(0, 3);
    Fx.P->setStaticSlot(GF.Slot, valueI(G));
    VM.onStaticStateStore(GF);
    if (!M.Specials.empty()) {
      // Both hot states pin globalMode == 0, so state 0 is the first (and
      // only) static match; anything else must route general code.
      CompiledMethod *Want =
          (G == 0 && M.Specials[0]) ? M.Specials[0] : M.General;
      EXPECT_EQ(Fx.P->staticEntry(Fx.StaticScale), Want)
          << "globalMode=" << G << " step=" << Step;
    }
    int64_t N = R.nextInRange(1, 8);
    EXPECT_EQ(VM.call(Fx.DriveStatic, {valueI(N)}).I, N * G * 7)
        << "globalMode=" << G << " step=" << Step;
  }
  EXPECT_GT(Auditor.auditsRun(), 0u);
  EXPECT_TRUE(Auditor.clean()) << Auditor.report();
}

INSTANTIATE_TEST_SUITE_P(Seeds, JtocSweep,
                         ::testing::Range<uint64_t>(20, 28));

class ImtSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ImtSweep, InterfaceDispatchTracksHotStateSwings) {
  // Interface calls route through the IMT, whose entries for mutable
  // classes are rewired to TibOffset dispatch. Random hot-state swings
  // interleaved with IMT-dispatched call loops must be invisible to
  // semantics (mutation on == mutation off) and leave the runtime
  // consistent under the auditor.
  auto Run = [](uint64_t Seed, bool Mutation) {
    CounterFixture Fx;
    VMOptions Opts;
    Opts.EnableMutation = Mutation;
    Opts.Adaptive.Opt1Threshold = 10;
    Opts.Adaptive.Opt2Threshold = 40;
    VirtualMachine VM(*Fx.P, Opts);
    ConsistencyAuditor Auditor(VM);
    VM.setAuditHook(&Auditor);
    VM.setMutationPlan(&Fx.Plan);
    Rng R(Seed);
    LocalRootScope Objs(VM.heap());
    for (int I = 0; I < 6; ++I)
      Objs.add(Fx.makeCounter(VM, I % 3));
    for (int Step = 0; Step < 120; ++Step) {
      Object *O = Objs[R.nextBelow(Objs.size())];
      if (R.nextBool(0.4))
        VM.call(Fx.SetMode, {valueR(O), valueI(R.nextInRange(0, 3))});
      VM.call(Fx.DriveIface, {valueR(O), valueI(R.nextInRange(1, 16))});
    }
    int64_t Sum = 0;
    for (Object *O : Objs.objects())
      Sum = Sum * 31 + VM.call(Fx.Get, {valueR(O)}).I;
    EXPECT_GT(Auditor.auditsRun(), 0u);
    EXPECT_TRUE(Auditor.clean()) << Auditor.report();
    return Sum;
  };
  EXPECT_EQ(Run(GetParam(), true), Run(GetParam(), false));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImtSweep,
                         ::testing::Range<uint64_t>(40, 48));

TEST(TransparencyAccelerated, MatchesBaseline) {
  // Accelerated hotness detection (Figure 14's mode) is also transparent.
  auto Run = [](bool Accel) {
    CounterFixture Fx;
    VMOptions Opts;
    Opts.Adaptive.AcceleratedMutableHotness = Accel;
    VirtualMachine VM(*Fx.P, Opts);
    VM.setMutationPlan(&Fx.Plan);
    Object *O = Fx.makeCounter(VM, 0);
    for (int I = 0; I < 100; ++I) {
      VM.call(Fx.SetMode, {valueR(O), valueI(I % 3)});
      VM.call(Fx.Bump, {valueR(O)});
    }
    return VM.call(Fx.Get, {valueR(O)}).I;
  };
  EXPECT_EQ(Run(false), Run(true));
}

} // namespace
