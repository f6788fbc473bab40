//===-- tests/RecoverableErrorsTest.cpp - Recoverable errors --------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// Tests for the recoverable error channels (docs/errors.md): the
/// VMError values that input-validation and resource paths return instead
/// of aborting, and the diagnostics the assembler returns (through runMvm)
/// for malformed `#!` directives.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "asm/Assembler.h"
#include "testing/MvmRun.h"

#include <gtest/gtest.h>

using namespace dchm;
using dchm::test::CounterFixture;

namespace {

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

/// One mutable class and a three-segment driver; every `#!` directive
/// comes from the test.
const char *const DirectiveProgram = R"(
class C0 {
  field mode: i64
  field mode2: i64
  field acc: i64
  ctor <init>(%m: i64) {
    putfield %this, C0.mode, %m
    %two = consti 2
    putfield %this, C0.mode2, %two
    ret
  }
  method tick() -> void {
    %a = getfield %this, C0.acc
    %m = getfield %this, C0.mode
    %a = add %a, %m
    putfield %this, C0.acc, %a
    ret
  }
}

class Main {
  field o: ref static
  method seg0() -> i64 static {
    %one = consti 1
    %o = new C0
    callspecial C0.<init>(%o, %one)
    putstatic Main.o, %o
    callvirtual C0.tick(%o)
    %r = getfield %o, C0.acc
    ret %r
  }
  method seg1() -> i64 static {
    %o = getstatic Main.o
    callvirtual C0.tick(%o)
    %r = getfield %o, C0.acc
    ret %r
  }
  method seg2() -> i64 static {
    %o = getstatic Main.o
    callvirtual C0.tick(%o)
    %r = getfield %o, C0.acc
    print %r
    ret %r
  }
  method main() -> i64 static {
    %r0 = callstatic Main.seg0()
    %r1 = callstatic Main.seg1()
    %r2 = callstatic Main.seg2()
    ret %r2
  }
}
)";

TEST(PlanDirectives, RejectsMalformedNumbers) {
  // Every directive number is parsed whole: a trailing letter, a sign
  // where none fits, or an extra token is a diagnostic, never a silently
  // accepted prefix, a wrapped value or an ignored word.
  const std::string Adaptive = "#!adaptive 30 120\n";
  const std::string Plan = "#!mutable C0 instance=mode,mode2 static=- "
                           "methods=tick\n";
  const std::string Hot = "#!hot C0 1,2 : -\n";
  MvmRunConfig Cfg;
  Cfg.Mutate = true;
  Cfg.AuditStride = 1;
  auto Run = [&](const std::string &Directives) {
    return runMvm(Directives + DirectiveProgram, Cfg);
  };

  MvmRunResult Good = Run(Adaptive + "#!segments 3\n" + Plan + Hot);
  ASSERT_TRUE(Good.ok()) << Good.Error;
  EXPECT_EQ(Good.Violations, 0u) << Good.AuditReport;
  EXPECT_EQ(Good.Output, "3");

  const std::string Bad[] = {
      "#!adaptive 30 120x\n" + Plan + Hot,
      "#!adaptive -5 120\n" + Plan + Hot,
      "#!adaptive 30 120 7\n" + Plan + Hot,
      Adaptive + Plan + "#!hot C0 1x,2 : -\n",
      Adaptive + "#!segments 3 retire=0x reinstall=1\n" + Plan + Hot,
      // `#!segments` takes the count alone; keys after it are rejected.
      Adaptive + "#!segments 3 retire=0 reinstall=1\n" + Plan + Hot,
  };
  for (const std::string &Directives : Bad) {
    MvmRunResult R = Run(Directives);
    EXPECT_FALSE(R.ok()) << Directives;
    EXPECT_EQ(R.Error.rfind("line ", 0), 0u) << R.Error;
    EXPECT_NE(R.Error.find("#!"), std::string::npos) << R.Error;
  }
}

TEST(PlanDirectives, DiagnosticNamesItsLine) {
  // The assembler parses the `#!` lines after link, and a bad one fails
  // the assembly with its line like any other diagnostic.
  const std::string Plan = "#!mutable C0 instance=mode,mode2 static=- "
                           "methods=tick\n";
  AssemblyResult A = assembleProgram("#!adaptive 30 120\n" + Plan +
                                     "#!hot C0 1,2x : -\n" + DirectiveProgram);
  EXPECT_FALSE(A.ok());
  EXPECT_EQ(A.Error.rfind("line 3: ", 0), 0u) << A.Error;
  EXPECT_NE(A.Error.find("#!hot"), std::string::npos) << A.Error;
  // A plan class without hot states names its `#!mutable` line.
  A = assembleProgram("# no hot states\n" + Plan + DirectiveProgram);
  EXPECT_EQ(A.Error, "line 2: #!mutable class has no #!hot states");
  // A `#!` that does not open its line is a comment.
  A = assembleProgram(" #!hot C0 1,2x : -\n" + Plan + "#!hot C0 1,2 : -\n" +
                      DirectiveProgram);
  ASSERT_TRUE(A.ok()) << A.Error;
  EXPECT_EQ(A.Directives.Plan.numHotStates(), 1u);
}

const char *const DriveProgram = R"(
class Main {
  field seed: i64 static
  field acc: i64 static
  method init(%n: i64) static {
    %s = getstatic Main.seed
    %a = add %s, %n
    putstatic Main.acc, %a
    ret
  }
  method step(%k: i64) static {
    %a = getstatic Main.acc
    %a = add %a, %k
    putstatic Main.acc, %a
    ret
  }
  method check() static {
    %a = getstatic Main.acc
    print %a
    ret
  }
  method main() -> i64 static {
    %r = consti 7
    ret %r
  }
}
)";

TEST(PlanDirectives, DriveRunsUnlessAnEntryIsGiven) {
  const std::string Drive = "#!drive seed=Main.seed:100 init=Main.init(5) "
                            "batch=Main.step(2)x10 min=3 check=Main.check\n";
  MvmRunConfig Cfg;
  MvmRunResult R = runMvm(Drive + DriveProgram, Cfg);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, "125"); // 100 + 5 + 10 batches of 2
  EXPECT_EQ(R.ResultType, Type::Void);

  // An explicit entry wins over the drive.
  Cfg.Entry = "Main.main";
  R = runMvm(Drive + DriveProgram, Cfg);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, "");
  EXPECT_EQ(R.Result.I, 7);

  // A drive takes no entry arguments.
  Cfg.Entry.clear();
  Cfg.Args = {1};
  EXPECT_NE(runMvm(Drive + DriveProgram, Cfg).Error.find("#!drive"),
            std::string::npos);

  // The batch count scales down (rounding toward zero) to the min floor.
  AssemblyResult A = assembleProgram(Drive + DriveProgram);
  ASSERT_TRUE(A.ok()) << A.Error;
  for (auto [Scale, Want] : {std::pair{0.59, "115"}, std::pair{0.1, "111"}}) {
    auto P = assembleProgram(DriveProgram).P;
    VirtualMachine VM(*P, VMOptions());
    runDrive(VM, A.Directives.Drive, Scale);
    EXPECT_EQ(VM.interp().output(), Want) << Scale;
  }
}

TEST(PlanDirectives, DriveRejectsMalformedLines) {
  const std::string Bad[] = {
      "#!drive init=Main.init(5) batch=Main.step(2)x10\n", // no check
      "#!drive init=Main.init(5) batch=Main.step(2) check=Main.check\n",
      "#!drive init=Main.init(5) batch=Main.step(2)x0 check=Main.check\n",
      "#!drive init=Main.init(5) batch=Main.step(2)x10x check=Main.check\n",
      "#!drive init=Main.init(5x) batch=Main.step(2)x1 check=Main.check\n",
      "#!drive init=Main.init(5,) batch=Main.step(2)x1 check=Main.check\n",
      "#!drive init=Main.init batch=Main.step(2)x1 check=Main.check\n",
      "#!drive init=Main.nope(5) batch=Main.step(2)x1 check=Main.check\n",
      "#!drive init=Main.init(5) batch=Main.step(2)x1 min=-1 "
      "check=Main.check\n",
      "#!drive seed=Main.nope:1 init=Main.init(5) batch=Main.step(2)x1 "
      "check=Main.check\n",
      "#!drive seed=Main.seed:1x init=Main.init(5) batch=Main.step(2)x1 "
      "check=Main.check\n",
      "#!drive init=Main.init(5) init=Main.init(6) batch=Main.step(2)x1 "
      "check=Main.check\n",
      "#!drive init=Main.init(5) batch=Main.step(2)x1 check=Main.check "
      "extra=1\n",
      "#!drive init=Main.init(5) batch=Main.step(2)x1 check=Main.check\n"
      "#!drive init=Main.init(5) batch=Main.step(2)x1 check=Main.check\n",
  };
  MvmRunConfig Cfg;
  for (const std::string &Directives : Bad) {
    MvmRunResult R = runMvm(Directives + DriveProgram, Cfg);
    EXPECT_FALSE(R.ok()) << Directives;
    EXPECT_EQ(R.Error.rfind("line ", 0), 0u) << R.Error;
    EXPECT_NE(R.Error.find("#!drive"), std::string::npos) << R.Error;
  }
}

} // namespace
