//===-- tests/DegradationTest.cpp - Graceful degradation ----------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// Tests for the graceful-degradation subsystem (docs/degradation.md): plan
/// retirement as the stop-the-world reverse of installation, the lifetime
/// of retired special TIBs and specialized bodies, and the recoverable
/// VMError channel on input-validation and resource paths.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "testing/ConsistencyAuditor.h"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

using namespace dchm;
using dchm::test::CounterFixture;

namespace {

/// Drives Bump hot enough to reach opt2 (where specialization happens).
void makeHot(CounterFixture &Fx, VirtualMachine &VM, Object *O,
             int Calls = 5000) {
  for (int I = 0; I < Calls; ++I)
    VM.call(Fx.Bump, {valueR(O)});
}

int64_t get(CounterFixture &Fx, VirtualMachine &VM, Object *O) {
  return VM.call(Fx.Get, {valueR(O)}).I;
}

// --- Plan retirement ---------------------------------------------------------

TEST(Retirement, RestoresPristineHierarchy) {
  CounterFixture Fx;
  VirtualMachine VM(*Fx.P, {});
  VM.setMutationPlan(&Fx.Plan);
  LocalRootScope Pin(VM.heap());
  Object *O0 = Fx.makeCounter(VM, 0);
  Pin.add(O0);
  Object *O1 = Fx.makeCounter(VM, 1);
  Pin.add(O1);
  makeHot(Fx, VM, O0);
  const ClassInfo &C = Fx.P->cls(Fx.Counter);
  ASSERT_EQ(O0->Tib, C.SpecialTibs[0]);

  ASSERT_TRUE(VM.retireMutationPlan());
  // The hierarchy looks as if no plan had ever been installed.
  EXPECT_TRUE(C.SpecialTibs.empty());
  EXPECT_FALSE(Fx.P->field(Fx.Mode).IsStateField);
  EXPECT_FALSE(Fx.P->method(Fx.Bump).IsMutable);
  EXPECT_EQ(O0->Tib, C.ClassTib);
  EXPECT_EQ(O1->Tib, C.ClassTib);
  ASSERT_NE(C.Imt, nullptr);
  for (const ImtEntry &E : C.Imt->Slots)
    EXPECT_NE(E.K, ImtEntry::Kind::TibOffset); // un-rewired to Direct
  EXPECT_EQ(VM.mutation().stats().PlanRetirements, 1u);
  EXPECT_EQ(VM.program().mutationPlan(), nullptr);
  // Retiring twice is a recoverable no-op.
  EXPECT_FALSE(VM.retireMutationPlan());

  // Behavior stays correct through general code: mode 7 is cold, +100/bump.
  VM.call(Fx.SetMode, {valueR(O0), valueI(7)});
  int64_t Before = get(Fx, VM, O0);
  VM.call(Fx.DriveBump, {valueR(O0), valueI(10)});
  EXPECT_EQ(get(Fx, VM, O0), Before + 1000);
}

TEST(Retirement, ReinstallAfterRetireWorks) {
  CounterFixture Fx;
  VirtualMachine VM(*Fx.P, {});
  VM.setMutationPlan(&Fx.Plan);
  LocalRootScope Pin(VM.heap());
  Object *O = Fx.makeCounter(VM, 0);
  Pin.add(O);
  makeHot(Fx, VM, O);
  ASSERT_TRUE(VM.retireMutationPlan());

  VM.setMutationPlan(&Fx.Plan);
  const ClassInfo &C = Fx.P->cls(Fx.Counter);
  ASSERT_EQ(C.SpecialTibs.size(), 2u);
  EXPECT_TRUE(Fx.P->field(Fx.Mode).IsStateField);
  // Installation migrated the old object back onto a special TIB...
  EXPECT_EQ(O->Tib, C.SpecialTibs[0]);
  // ...and part I fires again for new objects and state stores.
  Object *O2 = Fx.makeCounter(VM, 1);
  Pin.add(O2);
  EXPECT_EQ(O2->Tib, C.SpecialTibs[1]);
  int64_t Before = get(Fx, VM, O2);
  VM.call(Fx.DriveBump, {valueR(O2), valueI(10)});
  EXPECT_EQ(get(Fx, VM, O2), Before + 100); // mode 1: +10 each
}

TEST(Retirement, ReinstallWithDifferentPlan) {
  // Counters of modes 0 and 1 run under the fixture plan (hot states
  // {0, 1}) until bump reaches opt1; the plan is retired and one with hot
  // state {1} alone installed; then bump gets hot enough for opt2. Every
  // layer must follow the new plan. A mutation-off VM making the same calls
  // is the oracle.
  auto Drive = [](CounterFixture &Fx, VirtualMachine &VM,
                  const std::function<void()> &Swap,
                  const std::function<void(Object *, Object *)> &Check) {
    LocalRootScope Pin(VM.heap());
    Object *O0 = Fx.makeCounter(VM, 0);
    Pin.add(O0);
    Object *O1 = Fx.makeCounter(VM, 1);
    Pin.add(O1);
    VM.call(Fx.DriveBump, {valueR(O0), valueI(1000)});
    Swap();
    makeHot(Fx, VM, O1);
    Check(O0, O1);
    VM.call(Fx.DriveBump, {valueR(O0), valueI(100)});
    VM.call(Fx.DriveIface, {valueR(O1), valueI(100)});
    VM.call(Fx.Report, {valueR(O0)});
    VM.call(Fx.Report, {valueR(O1)});
    return VM.interp().output();
  };

  std::string Baseline;
  {
    CounterFixture Fx;
    VMOptions Opts;
    Opts.EnableMutation = false;
    VirtualMachine VM(*Fx.P, Opts);
    Baseline = Drive(Fx, VM, [] {}, [](Object *, Object *) {});
  }

  CounterFixture Fx;
  MutationPlan OnlyMode1 = Fx.Plan;
  std::vector<HotState> &States = OnlyMode1.Classes[0].HotStates;
  States.erase(States.begin());
  VirtualMachine VM(*Fx.P, {});
  ConsistencyAuditor Auditor(VM);
  VM.setAuditHook(&Auditor);
  VM.setMutationPlan(&Fx.Plan);
  const ClassInfo &C = Fx.P->cls(Fx.Counter);
  const MethodInfo &Bump = Fx.P->method(Fx.Bump);
  std::string Out = Drive(
      Fx, VM,
      [&] {
        ASSERT_EQ(Bump.CurOptLevel.load(), 1);
        ASSERT_TRUE(VM.retireMutationPlan());
        VM.setMutationPlan(&OnlyMode1);
      },
      [&](Object *O0, Object *O1) {
        EXPECT_EQ(VM.program().mutationPlan(), &OnlyMode1);
        ASSERT_EQ(Bump.CurOptLevel.load(), TopOptLevel);
        ASSERT_EQ(C.SpecialTibs.size(), 1u);
        ASSERT_EQ(Bump.Specials.size(), 1u);
        const CompiledMethod *SP = Bump.Specials[0];
        ASSERT_NE(SP, nullptr);
        EXPECT_EQ(SP->stateIndex(), 0);
        // Mode 1 is the new plan's state 0: O1 dispatches to its body.
        // Mode 0 is no hot state any more: O0 runs general code.
        EXPECT_EQ(O1->Tib, C.SpecialTibs[0]);
        EXPECT_EQ(C.SpecialTibs[0]->Slots[Bump.VSlot], SP);
        EXPECT_EQ(O0->Tib, C.ClassTib);
        EXPECT_EQ(C.ClassTib->Slots[Bump.VSlot], Bump.General);
      });
  EXPECT_EQ(Out, Baseline);
  Auditor.auditNow("end of test");
  EXPECT_TRUE(Auditor.clean()) << Auditor.report();
}

TEST(Retirement, GeneralCodeRunsAfterRetire) {
  CounterFixture Fx;
  VirtualMachine VM(*Fx.P, {});
  VM.setMutationPlan(&Fx.Plan);
  LocalRootScope Pin(VM.heap());
  Object *O = Fx.makeCounter(VM, 0);
  Pin.add(O);
  // Specialize bump for state 0 and run the DriveBump call site on it while
  // the plan is active.
  makeHot(Fx, VM, O);
  VM.call(Fx.DriveBump, {valueR(O), valueI(100)});
  int64_t Total = get(Fx, VM, O); // 5000 + 100, all +1 in mode 0
  ASSERT_EQ(Total, 5100);

  ASSERT_TRUE(VM.retireMutationPlan());

  // Mode is no longer a state field, so this store fires no part I hook;
  // the same call site must still dispatch through the restored class TIB.
  VM.call(Fx.SetMode, {valueR(O), valueI(5)});
  VM.call(Fx.DriveBump, {valueR(O), valueI(50)});
  // Correct dispatch runs general code: mode 5 is cold, +100 per bump. The
  // state-0 specialization would have added +1.
  EXPECT_EQ(get(Fx, VM, O), 5100 + 50 * 100);
}

/// Runs the canonical fixture workload and returns the simulated-state
/// fingerprint. With RoundTrip the plan is installed, retired, and
/// re-installed before any execution — the prologue round-trip the
/// acceptance gate requires to be bit-identical to a fresh install.
std::string runFingerprint(const VMOptions &Opts, bool RoundTrip) {
  CounterFixture Fx; // fresh Program: MethodInfo hotness must not leak
  VirtualMachine VM(*Fx.P, Opts);
  VM.setMutationPlan(&Fx.Plan);
  if (RoundTrip) {
    EXPECT_TRUE(VM.retireMutationPlan());
    VM.setMutationPlan(&Fx.Plan);
  }
  LocalRootScope Pin(VM.heap());
  Object *O0 = Fx.makeCounter(VM, 0);
  Pin.add(O0);
  Object *O1 = Fx.makeCounter(VM, 1);
  Pin.add(O1);
  makeHot(Fx, VM, O0);
  VM.call(Fx.DriveBump, {valueR(O1), valueI(500)});
  VM.call(Fx.Report, {valueR(O0)});
  VM.call(Fx.Report, {valueR(O1)});
  RunMetrics M = VM.metrics();
  std::ostringstream S;
  S << "out=" << VM.interp().output() << " hash=" << M.OutputHash
    << " insts=" << M.Insts << " inv=" << M.Invocations
    << " exec=" << M.ExecCycles << " compile=" << M.CompileCycles
    << " special=" << M.SpecialCompileCycles << " gc=" << M.GcCycles
    << " mut=" << M.MutationCycles << " total=" << M.TotalCycles
    << " swings=" << M.Mutation.ObjectTibSwings
    << " repoints=" << M.Mutation.CodePointerUpdates
    << " specials=" << M.SpecialCompiles;
  return S.str();
}

TEST(Retirement, PrologueRoundTripIsFingerprintIdentical) {
  // Install, retire, re-install before any object exists must leave every
  // simulated counter where plain installation puts it.
  EXPECT_EQ(runFingerprint({}, /*RoundTrip=*/true),
            runFingerprint({}, /*RoundTrip=*/false));
}

TEST(Retirement, MidRunRetireReinstallKeepsOutput) {
  // The same call sequence on a mutation-off VM is the semantic oracle.
  auto Drive = [](CounterFixture &Fx, VirtualMachine &VM,
                  bool WithRetire) -> std::string {
    LocalRootScope Pin(VM.heap());
    Object *O = Fx.makeCounter(VM, 0);
    Pin.add(O);
    makeHot(Fx, VM, O, 2000);
    if (WithRetire) {
      VM.retireMutationPlan();
      VM.setMutationPlan(&Fx.Plan); // re-install migrates existing objects
    }
    VM.call(Fx.SetMode, {valueR(O), valueI(1)});
    VM.call(Fx.DriveBump, {valueR(O), valueI(300)});
    VM.call(Fx.DriveIface, {valueR(O), valueI(300)});
    VM.call(Fx.Report, {valueR(O)});
    return VM.interp().output();
  };

  std::string Baseline;
  {
    CounterFixture Fx;
    VMOptions Opts;
    Opts.EnableMutation = false;
    VirtualMachine VM(*Fx.P, Opts);
    Baseline = Drive(Fx, VM, false);
  }
  {
    CounterFixture Fx;
    VirtualMachine VM(*Fx.P, {});
    ConsistencyAuditor Auditor(VM);
    VM.setAuditHook(&Auditor);
    VM.setMutationPlan(&Fx.Plan);
    EXPECT_EQ(Drive(Fx, VM, true), Baseline);
    Auditor.auditNow("end of test");
    EXPECT_TRUE(Auditor.clean()) << Auditor.report();
  }
}

TEST(Retirement, RepeatedRoundTripsKeepTibBytes) {
  // Retired special TIBs stay allocated but stop counting toward the
  // Figure 12 metric: after three mid-run retire/re-install cycles the TIB
  // bytes and the output equal those of one install.
  auto Run = [](int RoundTrips) {
    CounterFixture Fx;
    VirtualMachine VM(*Fx.P, {});
    VM.setMutationPlan(&Fx.Plan);
    LocalRootScope Pin(VM.heap());
    Object *O0 = Fx.makeCounter(VM, 0);
    Pin.add(O0);
    Object *O1 = Fx.makeCounter(VM, 1);
    Pin.add(O1);
    makeHot(Fx, VM, O0);
    for (int R = 0; R < RoundTrips; ++R) {
      EXPECT_TRUE(VM.retireMutationPlan());
      EXPECT_EQ(VM.metrics().SpecialTibBytes, 0u);
      VM.setMutationPlan(&Fx.Plan);
    }
    VM.call(Fx.DriveBump, {valueR(O1), valueI(500)});
    VM.call(Fx.Report, {valueR(O0)});
    VM.call(Fx.Report, {valueR(O1)});
    return std::make_pair(VM.metrics(), VM.interp().output());
  };
  auto [Once, OnceOut] = Run(0);
  auto [Thrice, ThriceOut] = Run(3);
  EXPECT_GT(Once.SpecialTibBytes, 0u);
  EXPECT_EQ(Thrice.SpecialTibBytes, Once.SpecialTibBytes);
  EXPECT_EQ(Thrice.ClassTibBytes, Once.ClassTibBytes);
  EXPECT_EQ(ThriceOut, OnceOut);
}

TEST(Retirement, StrandedObjectKeepsDispatchingAndTripsAuditor) {
  CounterFixture Fx;
  VirtualMachine VM(*Fx.P, {});
  ConsistencyAuditor Auditor(VM);
  VM.setAuditHook(&Auditor);
  VM.setMutationPlan(&Fx.Plan);
  LocalRootScope Pin(VM.heap());
  Object *O = Fx.makeCounter(VM, 0);
  Pin.add(O);
  makeHot(Fx, VM, O); // specialized bodies exist and are TIB-referenced
  TIB *Special = O->Tib;
  ASSERT_TRUE(Special->isSpecial());

  // Inject the partial-retire fault: the heap pass that swings objects off
  // their special TIBs is skipped, stranding O on a retired TIB.
  VM.mutation().debugFlags().SkipRetireSwing = true;
  ASSERT_TRUE(VM.retireMutationPlan());
  EXPECT_EQ(O->Tib, Special);

  // The retired TIB and the retired bodies its slots point at stay
  // allocated, so the stranded object still dispatches correctly...
  int64_t Before = get(Fx, VM, O);
  VM.call(Fx.DriveBump, {valueR(O), valueI(10)});
  EXPECT_EQ(get(Fx, VM, O), Before + 10);
  // ...and the auditor reports the break the fuzzer's
  // --inject-partial-retire mode hunts for.
  Auditor.auditNow("after faulty retire");
  EXPECT_GT(Auditor.violationCount(), 0u);

  // Re-installing leaves O where it is (migration only re-classes objects
  // on class TIBs), and it keeps dispatching through the retired TIB.
  VM.mutation().debugFlags().SkipRetireSwing = false;
  VM.setMutationPlan(&Fx.Plan);
  EXPECT_EQ(O->Tib, Special);
  Before = get(Fx, VM, O);
  VM.call(Fx.DriveBump, {valueR(O), valueI(10)});
  VM.call(Fx.DriveIface, {valueR(O), valueI(10)});
  EXPECT_EQ(get(Fx, VM, O), Before + 20);
}

// --- Recoverable errors ------------------------------------------------------

TEST(RecoverableErrors, RunValidatesEntryAndArguments) {
  CounterFixture Fx;
  VirtualMachine VM(*Fx.P, {});
  LocalRootScope Pin(VM.heap());
  Object *O = Fx.makeCounter(VM, 0);
  Pin.add(O);

  Expected<Value> Bad = VM.run(static_cast<MethodId>(1u << 20), {});
  ASSERT_FALSE(static_cast<bool>(Bad));
  EXPECT_NE(Bad.takeError().message().find("no such method"),
            std::string::npos);

  Expected<Value> WrongArity = VM.run(Fx.Get, {}); // needs the receiver
  ASSERT_FALSE(static_cast<bool>(WrongArity));
  EXPECT_NE(WrongArity.takeError().message().find("argument"),
            std::string::npos);

  Expected<Value> Good = VM.run(Fx.Get, {valueR(O)});
  ASSERT_TRUE(static_cast<bool>(Good));
  EXPECT_EQ((*Good).I, 0);
}

TEST(RecoverableErrors, HeapBudgetOverrunSurfacesWithoutAborting) {
  CounterFixture Fx;
  VMOptions Opts;
  Opts.HeapBytes = 4096; // the smallest soft budget the heap accepts
  VirtualMachine VM(*Fx.P, Opts);
  LocalRootScope Pin(VM.heap());
  ClassInfo &C = Fx.P->cls(Fx.Counter);
  // Pinned live objects: collection cannot free them, so allocation goes
  // over budget — the soft allocator proceeds but records the overrun.
  for (int I = 0; I < 256; ++I)
    Pin.add(VM.heap().allocateInstance(C, C.ClassTib));
  ASSERT_TRUE(static_cast<bool>(VM.heap().budgetError()));

  Expected<Value> V = VM.run(Fx.Get, {valueR(Pin[0])});
  ASSERT_FALSE(static_cast<bool>(V));
  EXPECT_FALSE(V.takeError().message().empty());

  // The error is sticky but clearable; afterwards run() succeeds again.
  VM.heap().clearBudgetError();
  Expected<Value> Ok = VM.run(Fx.Get, {valueR(Pin[0])});
  EXPECT_TRUE(static_cast<bool>(Ok));
}

} // namespace
