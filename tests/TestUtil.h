//===-- tests/TestUtil.h - Shared test fixtures ---------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for building small programs in tests: assembling `.mvm` text, a
/// SalaryDB-like mutable class ("Counter" with a mode state field), and
/// utilities to run IR functions standalone through a VM.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_TESTS_TESTUTIL_H
#define DCHM_TESTS_TESTUTIL_H

#include "asm/Assembler.h"
#include "core/VM.h"
#include "ir/Builder.h"
#include "mutation/MutationPlan.h"
#include "runtime/Program.h"
#include "workloads/Workload.h"

#include <memory>

namespace dchm {
namespace test {

/// A tiny program with one static method "main" whose body is supplied by
/// the caller. Useful for interpreter and pass semantics tests.
struct SingleFunctionProgram {
  std::unique_ptr<Program> P;
  MethodId Main = NoMethodId;

  /// Builds a program holding F as static method Holder.main.
  static SingleFunctionProgram create(IRFunction F) {
    SingleFunctionProgram S;
    S.P = std::make_unique<Program>();
    ClassId Holder = S.P->defineClass("Holder");
    MethodFlags Flags;
    Flags.IsStatic = true;
    std::vector<Type> Params(F.RegTypes.begin(),
                             F.RegTypes.begin() + F.NumArgs);
    S.Main = S.P->defineMethod(Holder, "main", F.RetTy, Params, Flags);
    S.P->setBody(S.Main, std::move(F));
    S.P->link();
    return S;
  }

  /// Runs main with the given arguments on a fresh VM.
  Value run(const std::vector<Value> &Args, const VMOptions &Opts = {}) {
    VirtualMachine VM(*P, Opts);
    return VM.call(Main, Args);
  }
};

/// Assembles a test program (docs/mvm-format.md); a text that does not
/// assemble aborts with the assembler's diagnostic.
inline std::unique_ptr<Program> assemble(const char *Source) {
  AssemblyResult R = assembleProgram(Source);
  if (!R.ok())
    reportFatalErrorf("test program does not assemble: %s", R.Error.c_str());
  return std::move(R.P);
}

/// CounterFixture's program: Counter.bump() adds 1, 10 or 100 to total by
/// mode, SubCounter overrides get() (not bump()) to return -total,
/// staticScale() returns globalMode * 7, and each TestDriver loop calls
/// through one virtual, interface or static call site n times.
inline constexpr const char *CounterMvm = R"(
interface Bumpable {
  method bump()
}
class Counter implements Bumpable {
  field mode: i64 private
  field total: i64
  field globalMode: i64 static private
  ctor <init>(%1: i64) {
    putfield %this, Counter.mode, %1
    %2 = consti 0
    putfield %this, Counter.total, %2
    ret
  }
  method bump() {
    %1 = getfield %this, Counter.mode
    %2 = getfield %this, Counter.total
    %3 = consti 0
    %4 = cmpne %1, %3
    cbnz %4, @L1
    %5 = consti 1
    %6 = add %2, %5
    putfield %this, Counter.total, %6
    br @L3
  @L1:
    %7 = consti 1
    %8 = cmpne %1, %7
    cbnz %8, @L2
    %9 = consti 10
    %10 = add %2, %9
    putfield %this, Counter.total, %10
    br @L3
  @L2:
    %11 = consti 100
    %12 = add %2, %11
    putfield %this, Counter.total, %12
    br @L3
  @L3:
    ret
  }
  method get() -> i64 {
    %1 = getfield %this, Counter.total
    ret %1
  }
  method setMode(%1: i64) {
    putfield %this, Counter.mode, %1
    ret
  }
  method staticScale() -> i64 static {
    %0 = getstatic Counter.globalMode
    %1 = consti 7
    %2 = mul %0, %1
    ret %2
  }
}
class SubCounter extends Counter {
  ctor <init>(%1: i64) {
    callspecial Counter.<init>(%this, %1)
    ret
  }
  method get() -> i64 {
    %1 = getfield %this, Counter.total
    %2 = neg %1
    ret %2
  }
}
class TestDriver {
  method driveBump(%0: ref, %1: i64) static {
    %2 = consti 0
    %3 = move %2
    %4 = consti 1
  @L1:
    %5 = cmplt %3, %1
    cbz %5, @L2
    callvirtual Counter.bump(%0)
    %3 = add %3, %4
    br @L1
  @L2:
    ret
  }
  method driveIface(%0: ref, %1: i64) static {
    %2 = consti 0
    %3 = move %2
    %4 = consti 1
  @L1:
    %5 = cmplt %3, %1
    cbz %5, @L2
    callinterface Bumpable.bump(%0)
    %3 = add %3, %4
    br @L1
  @L2:
    ret
  }
  method driveStatic(%0: i64) -> i64 static {
    %1 = consti 0
    %2 = move %1
    %3 = consti 0
    %4 = move %3
    %5 = consti 1
  @L1:
    %6 = cmplt %4, %0
    cbz %6, @L2
    %7 = callstatic Counter.staticScale()
    %2 = add %2, %7
    %4 = add %4, %5
    br @L1
  @L2:
    ret %2
  }
  method report(%0: ref) static {
    %1 = callvirtual Counter.get(%0)
    print %1
    ret
  }
}
)";

/// The canonical mutable-class fixture used across mutation tests: a
/// Counter class whose bump() behavior depends on its `mode` state field
/// (0: +1, 1: +10, otherwise +100), plus a subclass, an interface, and a
/// driver class. Mirrors the structure of the paper's SalaryDB example.
struct CounterFixture {
  std::unique_ptr<Program> P;
  ClassId Iface, Counter, SubCounter, Driver;
  FieldId Mode, Total, GlobalMode;
  MethodId IfaceBump, CounterCtor, Bump, Get, SetMode, SubBump, StaticScale;
  /// Interpreted driver bodies: unlike VM.call (which resolves through
  /// invoke()), these execute real CallVirtual/CallInterface/CallStatic
  /// instructions, so the interpreter's call-site dispatch is on the path.
  MethodId DriveBump, DriveIface, DriveStatic, Report;
  MutationPlan Plan;

  /// Builds the fixture. WithStaticField adds a static state field
  /// (GlobalMode) to the plan, exercising the static branches of the
  /// distributed mutation algorithm.
  explicit CounterFixture(bool WithStaticField = false) {
    P = assemble(CounterMvm);
    ProgramIds Ids(*P);
    Iface = Ids.cls("Bumpable");
    Counter = Ids.cls("Counter");
    SubCounter = Ids.cls("SubCounter");
    Driver = Ids.cls("TestDriver");
    Mode = Ids.field("Counter", "mode");
    Total = Ids.field("Counter", "total");
    GlobalMode = Ids.field("Counter", "globalMode");
    IfaceBump = Ids.method("Bumpable", "bump");
    CounterCtor = Ids.method("Counter", "<init>");
    Bump = Ids.method("Counter", "bump");
    Get = Ids.method("Counter", "get");
    SetMode = Ids.method("Counter", "setMode");
    StaticScale = Ids.method("Counter", "staticScale");
    SubBump = Ids.method("SubCounter", "get");
    DriveBump = Ids.method("TestDriver", "driveBump");
    DriveIface = Ids.method("TestDriver", "driveIface");
    DriveStatic = Ids.method("TestDriver", "driveStatic");
    Report = Ids.method("TestDriver", "report");

    // The mutation plan: Counter is mutable on `mode` with hot states
    // {0, 1}; optionally also on the static globalMode (hot value 0).
    MutableClassPlan CP;
    CP.Cls = Counter;
    CP.InstanceStateFields = {Mode};
    if (WithStaticField)
      CP.StaticStateFields = {GlobalMode};
    HotState S0, S1;
    S0.InstanceVals = {valueI(0)};
    S1.InstanceVals = {valueI(1)};
    if (WithStaticField) {
      S0.StaticVals = {valueI(0)};
      S1.StaticVals = {valueI(0)};
    }
    CP.HotStates = {S0, S1};
    CP.MutableMethods = {Bump};
    if (WithStaticField)
      CP.MutableMethods.push_back(StaticScale);
    Plan.Classes.push_back(CP);
  }

  /// Creates a Counter instance with the given mode on VM's heap, running
  /// the constructor through the interpreter (fires the ctor-exit hook).
  Object *makeCounter(VirtualMachine &VM, int64_t ModeV) {
    ClassInfo &C = VM.program().cls(Counter);
    Object *O = VM.heap().allocateInstance(C, C.ClassTib);
    VM.call(CounterCtor, {valueR(O), valueI(ModeV)});
    return O;
  }
};

} // namespace test
} // namespace dchm

#endif // DCHM_TESTS_TESTUTIL_H
