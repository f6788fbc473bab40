//===-- tests/InlinerTest.cpp - Inliner + specialization inlining -------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "compiler/Inliner.h"
#include "compiler/Passes.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace dchm;

namespace {

size_t countCalls(const IRFunction &F) {
  size_t N = 0;
  for (const Instruction &I : F.Insts)
    if (isCall(I.Op))
      ++N;
  return N;
}

/// Program with a static helper, a virtual method with a single
/// implementation (effectively final), and callers.
struct InlineFixture : ::testing::Test {
  std::unique_ptr<Program> Prog = test::assemble(R"(
class C {
  method helper(%0: i64) -> i64 static {
    %1 = consti 3
    %2 = mul %0, %1
    ret %2
  }
  method twice(%1: i64) -> i64 {
    %2 = add %1, %1
    ret %2
  }
  method callerStatic(%0: i64) -> i64 static {
    %1 = callstatic C.helper(%0)
    %2 = consti 1
    %3 = add %1, %2
    ret %3
  }
  method callerVirtual(%0: ref, %1: i64) -> i64 static {
    %2 = callvirtual C.twice(%0, %1)
    ret %2
  }
  method recurse(%0: i64) -> i64 static {
    cbz %0, @L1
    %1 = consti 1
    %2 = sub %0, %1
    %3 = callstatic C.recurse(%2)
    %4 = add %3, %1
    ret %4
  @L1:
    %5 = consti 0
    ret %5
  }
}
)");
  Program &P = *Prog;
  ProgramIds Ids{P};
  ClassId C = Ids.cls("C");
  MethodId Helper = Ids.method("C", "helper"), Twice = Ids.method("C", "twice"),
           CallerStatic = Ids.method("C", "callerStatic"),
           CallerVirtual = Ids.method("C", "callerVirtual"),
           Recurse = Ids.method("C", "recurse");

  InlineStats runInliner(MethodId Root, const InlinerConfig &Cfg = {},
                         const OlcDatabase *Olc = nullptr,
                         const MutationPlan *Plan = nullptr) {
    Inliner Inl(P, Cfg, Olc, Plan);
    return Inl.run(P.method(Root).Bytecode, P.method(Root));
  }
};

TEST_F(InlineFixture, InlinesStaticCall) {
  InlineStats S = runInliner(CallerStatic);
  EXPECT_EQ(S.SitesInlined, 1u);
  const IRFunction &F = P.method(CallerStatic).Bytecode;
  EXPECT_EQ(countCalls(F), 0u);
  EXPECT_EQ(verifyFunction(F), "");
  // Behavior preserved: helper(x)+1 = 3x+1.
  runOptPipeline(P.method(CallerStatic).Bytecode);
  VirtualMachine VM(P, {});
  EXPECT_EQ(VM.call(CallerStatic, {valueI(5)}).I, 16);
}

TEST_F(InlineFixture, InlinesEffectivelyFinalVirtual) {
  InlineStats S = runInliner(CallerVirtual);
  EXPECT_EQ(S.SitesInlined, 1u);
  EXPECT_EQ(countCalls(P.method(CallerVirtual).Bytecode), 0u);
}

TEST_F(InlineFixture, SizeBoundRejectsLargeCallee) {
  // A callee at the size bound inlines; one instruction more does not.
  for (unsigned Size : {Inliner::MaxCalleeInsts, Inliner::MaxCalleeInsts + 1}) {
    Program P2;
    ClassId D = P2.defineClass("D");
    MethodId H = P2.defineMethod(D, "h", Type::I64, {Type::I64},
                                 {.IsStatic = true});
    {
      FunctionBuilder B("D.h", Type::I64);
      Reg X = B.addArg(Type::I64);
      Reg Acc = B.newReg(Type::I64);
      for (unsigned I = 1; I < Size; ++I)
        B.move(Acc, X);
      B.ret(Acc);
      P2.setBody(H, B.finalize());
    }
    MethodId Caller = P2.defineMethod(D, "caller", Type::I64, {Type::I64},
                                      {.IsStatic = true});
    {
      FunctionBuilder B("D.caller", Type::I64);
      Reg X = B.addArg(Type::I64);
      B.ret(B.callStatic(H, {X}, Type::I64));
      P2.setBody(Caller, B.finalize());
    }
    P2.link();
    ASSERT_EQ(P2.method(H).Bytecode.Insts.size(), Size);
    Inliner Inl(P2, {}, nullptr, nullptr);
    InlineStats S = Inl.run(P2.method(Caller).Bytecode, P2.method(Caller));
    bool Fits = Size <= Inliner::MaxCalleeInsts;
    EXPECT_EQ(S.SitesInlined, Fits ? 1u : 0u) << "callee of " << Size;
    EXPECT_EQ(countCalls(P2.method(Caller).Bytecode), Fits ? 0u : 1u);
  }
}

TEST_F(InlineFixture, RecursionIsNotInlinedForever) {
  InlineStats S = runInliner(Recurse);
  // Self-recursion is rejected outright.
  EXPECT_EQ(S.SitesInlined, 0u);
  VirtualMachine VM(P, {});
  EXPECT_EQ(VM.call(Recurse, {valueI(4)}).I, 4);
}

TEST_F(InlineFixture, GrowthBudgetCapsTotalInlining) {
  // A caller with twice the call sites of a 20-instruction callee that the
  // growth budget admits: the budget must stop inlining.
  constexpr unsigned Sites = 2 * Inliner::MaxFunctionGrowth / 20;
  Program P2;
  ClassId D = P2.defineClass("D");
  MethodId H = P2.defineMethod(D, "h", Type::I64, {Type::I64},
                               {.IsStatic = true});
  {
    FunctionBuilder B("D.h", Type::I64);
    Reg X = B.addArg(Type::I64);
    // 20 instructions.
    Reg Acc = B.newReg(Type::I64);
    B.move(Acc, X);
    for (int I = 0; I < 9; ++I)
      B.move(Acc, B.add(Acc, X));
    B.ret(Acc);
    P2.setBody(H, B.finalize());
  }
  MethodId Caller = P2.defineMethod(D, "caller", Type::I64, {Type::I64},
                                    {.IsStatic = true});
  {
    FunctionBuilder B("D.caller", Type::I64);
    Reg X = B.addArg(Type::I64);
    Reg Acc = B.newReg(Type::I64);
    B.move(Acc, X);
    for (unsigned I = 0; I < Sites; ++I)
      B.move(Acc, B.add(Acc, B.callStatic(H, {Acc}, Type::I64)));
    B.ret(Acc);
    P2.setBody(Caller, B.finalize());
  }
  P2.link();
  ASSERT_EQ(P2.method(H).Bytecode.Insts.size(), 20u);
  Inliner Inl(P2, {}, nullptr, nullptr);
  InlineStats S = Inl.run(P2.method(Caller).Bytecode, P2.method(Caller));
  EXPECT_GT(S.SitesInlined, 0u);
  EXPECT_LT(S.SitesInlined, Sites);
  // Budget plus one callee of slack.
  EXPECT_LE(S.InstsAdded, Inliner::MaxFunctionGrowth + 25u);
}

TEST_F(InlineFixture, PolymorphicVirtualIsNotInlined) {
  // Add an override of twice() in a subclass: the slot root now has two
  // implementations and the unguarded inline must stop.
  Program P2;
  ClassId A2 = P2.defineClass("A2");
  MethodId T2 = P2.defineMethod(A2, "twice", Type::I64, {Type::I64});
  {
    FunctionBuilder B("A2.twice", Type::I64);
    B.addArg(Type::Ref);
    Reg X = B.addArg(Type::I64);
    B.ret(B.add(X, X));
    P2.setBody(T2, B.finalize());
  }
  ClassId B2 = P2.defineClass("B2", A2);
  MethodId T3 = P2.defineMethod(B2, "twice", Type::I64, {Type::I64});
  {
    FunctionBuilder B("B2.twice", Type::I64);
    B.addArg(Type::Ref);
    Reg X = B.addArg(Type::I64);
    Reg Four = B.constI(4);
    B.ret(B.mul(X, Four));
    P2.setBody(T3, B.finalize());
  }
  MethodId Caller2 = P2.defineMethod(A2, "go", Type::I64,
                                     {Type::Ref, Type::I64},
                                     {.IsStatic = true});
  {
    FunctionBuilder B("A2.go", Type::I64);
    Reg O = B.addArg(Type::Ref);
    Reg X = B.addArg(Type::I64);
    B.ret(B.callVirtual(T2, {O, X}, Type::I64));
    P2.setBody(Caller2, B.finalize());
  }
  P2.link();
  Inliner Inl(P2, {}, nullptr, nullptr);
  InlineStats S = Inl.run(P2.method(Caller2).Bytecode, P2.method(Caller2));
  EXPECT_EQ(S.SitesInlined, 0u);
}

// --- The N > M + k trade-off (paper section 5) -------------------------------

/// Caller passes K constant arguments to a mutable method reading one state
/// field (M = 1): inlining happens iff N > M + k.
struct TradeoffCase {
  unsigned ConstArgs;
  int K;
  bool ExpectInline;
  /// Fills what would otherwise be padding. gtest names each case after the
  /// raw bytes of its parameter, so leaving these bytes uninitialised made
  /// the case names depend on stack contents; fixing them keeps every case
  /// name stable from build to build.
  uint8_t NameTag[3];
};
static_assert(sizeof(TradeoffCase) == 12, "TradeoffCase must have no padding");

class TradeoffTest : public ::testing::TestWithParam<TradeoffCase> {};

TEST_P(TradeoffTest, InlineVsSpecialize) {
  TradeoffCase TC = GetParam();
  Program P;
  ClassId C = P.defineClass("C");
  FieldId Mode = P.defineField(C, "mode", Type::I64, false);
  // Mutable method with 3 params reading one state field.
  MethodId M = P.defineMethod(C, "m", Type::I64,
                              {Type::I64, Type::I64, Type::I64});
  {
    FunctionBuilder B("C.m", Type::I64);
    Reg This = B.addArg(Type::Ref);
    Reg X = B.addArg(Type::I64);
    Reg Y = B.addArg(Type::I64);
    Reg Z = B.addArg(Type::I64);
    Reg St = B.getField(This, Mode, Type::I64);
    B.ret(B.add(B.add(X, Y), B.add(Z, St)));
    P.setBody(M, B.finalize());
  }
  MethodId Caller = P.defineMethod(C, "caller", Type::I64, {Type::Ref},
                                   {.IsStatic = true});
  {
    FunctionBuilder B("C.caller", Type::I64);
    Reg O = B.addArg(Type::Ref);
    // ConstArgs of the three arguments are constants; the rest come from a
    // (non-constant) field read.
    std::vector<Reg> Args{O};
    for (unsigned I = 0; I < 3; ++I) {
      if (I < TC.ConstArgs)
        Args.push_back(B.constI(static_cast<int64_t>(I)));
      else
        Args.push_back(B.getField(O, Mode, Type::I64));
    }
    B.ret(B.call(Opcode::CallVirtual, M, Args, Type::I64));
    P.setBody(Caller, B.finalize());
  }
  P.link();

  MutationPlan Plan;
  MutableClassPlan CP;
  CP.Cls = C;
  CP.InstanceStateFields = {Mode};
  HotState S;
  S.InstanceVals = {valueI(0)};
  CP.HotStates = {S};
  CP.MutableMethods = {M};
  Plan.Classes.push_back(CP);
  // Mark mutability as installPlan would.
  P.method(M).IsMutable = true;

  InlinerConfig Cfg;
  Cfg.TradeoffK = TC.K;
  Inliner Inl(P, Cfg, nullptr, &Plan);
  InlineStats St = Inl.run(P.method(Caller).Bytecode, P.method(Caller));
  EXPECT_EQ(St.SitesInlined > 0, TC.ExpectInline)
      << "N=" << TC.ConstArgs << " k=" << TC.K;
  if (!TC.ExpectInline) {
    EXPECT_EQ(St.TradeoffRejections, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TradeoffTest,
    ::testing::Values(
        // M = 1 state field. Inline iff N > 1 + k.
        TradeoffCase{0, 0, false, {0xDF, 0xE3, 0x34}},
        TradeoffCase{1, 0, false, {0x00, 0x00, 0x00}},
        TradeoffCase{2, 0, true, {0x53, 0x8B, 0x91}},
        TradeoffCase{3, 0, true, {0xD8, 0xCD, 0x5D}},
        TradeoffCase{2, 1, false, {0xFF, 0xFF, 0xFF}},
        TradeoffCase{3, 1, true, {0x00, 0x00, 0x00}},
        // Very negative k: inlining always wins (paper's discussion).
        TradeoffCase{0, -5, true, {0x4F, 0x84, 0x3A}},
        // Very positive k: specialization always wins.
        TradeoffCase{3, 5, false, {0x56, 0x00, 0x00}}));

// --- OLC specialization inlining ---------------------------------------------

TEST(OlcInline, SubstitutesConstantsWithoutGuards) {
  // DeliveryTransaction-style: caller loads a private exact-type field and
  // invokes a method on it; the OLC database supplies rows/cols constants.
  Program P;
  ClassId Screen = P.defineClass("Screen");
  FieldId Rows = P.defineField(Screen, "rows", Type::I64, false);
  MethodId Area = P.defineMethod(Screen, "area", Type::I64, {});
  {
    FunctionBuilder B("Screen.area", Type::I64);
    Reg This = B.addArg(Type::Ref);
    Reg R = B.getField(This, Rows, Type::I64);
    B.ret(B.mul(R, R));
    P.setBody(Area, B.finalize());
  }
  ClassId Tx = P.defineClass("Tx");
  FieldId ScreenRef =
      P.defineField(Tx, "screen", Type::Ref, false, Access::Private);
  MethodId Process = P.defineMethod(Tx, "process", Type::I64, {});
  {
    FunctionBuilder B("Tx.process", Type::I64);
    Reg This = B.addArg(Type::Ref);
    Reg S = B.getField(This, ScreenRef, Type::Ref);
    B.ret(B.callVirtual(Area, {S}, Type::I64));
    P.setBody(Process, B.finalize());
  }
  P.link();

  OlcDatabase Db;
  OlcEntry E;
  E.RefField = ScreenRef;
  E.TargetClass = Screen;
  E.Constants.push_back({Rows, valueI(24)});
  Db.Entries.push_back(E);

  Inliner Inl(P, {}, &Db, nullptr);
  IRFunction &F = P.method(Process).Bytecode;
  InlineStats St = Inl.run(F, P.method(Process));
  EXPECT_EQ(St.SpecializationInlines, 1u);
  // After the pipeline the 24*24 folds to 576 — no guard, no field load of
  // rows, no call.
  runOptPipeline(F);
  bool Found576 = false;
  size_t FieldLoadsOfRows = 0;
  for (const Instruction &I : F.Insts) {
    if (I.Op == Opcode::ConstI && I.Imm == 576)
      Found576 = true;
    if (I.Op == Opcode::GetField && static_cast<FieldId>(I.Imm) == Rows)
      ++FieldLoadsOfRows;
    EXPECT_FALSE(isCall(I.Op));
  }
  EXPECT_TRUE(Found576);
  EXPECT_EQ(FieldLoadsOfRows, 0u);
}

TEST(OlcInline, PartialSpecializationKeepsUnprovenFields) {
  // Only one of two fields has an OLC proof: the other stays a load
  // (partial specialization inlining, paper section 5).
  Program P;
  ClassId Screen = P.defineClass("Screen");
  FieldId Rows = P.defineField(Screen, "rows", Type::I64, false);
  FieldId Cols = P.defineField(Screen, "cols", Type::I64, false);
  MethodId Area = P.defineMethod(Screen, "area", Type::I64, {});
  {
    FunctionBuilder B("Screen.area", Type::I64);
    Reg This = B.addArg(Type::Ref);
    Reg R = B.getField(This, Rows, Type::I64);
    Reg C = B.getField(This, Cols, Type::I64);
    B.ret(B.mul(R, C));
    P.setBody(Area, B.finalize());
  }
  ClassId Tx = P.defineClass("Tx");
  FieldId ScreenRef =
      P.defineField(Tx, "screen", Type::Ref, false, Access::Private);
  MethodId Process = P.defineMethod(Tx, "process", Type::I64, {});
  {
    FunctionBuilder B("Tx.process", Type::I64);
    Reg This = B.addArg(Type::Ref);
    Reg S = B.getField(This, ScreenRef, Type::Ref);
    B.ret(B.callVirtual(Area, {S}, Type::I64));
    P.setBody(Process, B.finalize());
  }
  P.link();

  OlcDatabase Db;
  OlcEntry E;
  E.RefField = ScreenRef;
  E.TargetClass = Screen;
  E.Constants.push_back({Rows, valueI(24)}); // cols unproven
  Db.Entries.push_back(E);

  Inliner Inl(P, {}, &Db, nullptr);
  IRFunction &F = P.method(Process).Bytecode;
  Inl.run(F, P.method(Process));
  runOptPipeline(F);
  size_t RowLoads = 0, ColLoads = 0;
  for (const Instruction &I : F.Insts) {
    if (I.Op == Opcode::GetField && static_cast<FieldId>(I.Imm) == Rows)
      ++RowLoads;
    if (I.Op == Opcode::GetField && static_cast<FieldId>(I.Imm) == Cols)
      ++ColLoads;
  }
  EXPECT_EQ(RowLoads, 0u);
  EXPECT_EQ(ColLoads, 1u);
}

TEST(OlcInline, DevirtualizesThroughExactTypeDespiteOverride) {
  // Screen has a subclass overriding area(): a plain virtual call cannot be
  // inlined, but the OLC exact type devirtualizes to Screen.area.
  Program P;
  ClassId Screen = P.defineClass("Screen");
  FieldId Rows = P.defineField(Screen, "rows", Type::I64, false);
  MethodId Area = P.defineMethod(Screen, "area", Type::I64, {});
  {
    FunctionBuilder B("Screen.area", Type::I64);
    Reg This = B.addArg(Type::Ref);
    B.ret(B.getField(This, Rows, Type::I64));
    P.setBody(Area, B.finalize());
  }
  ClassId Big = P.defineClass("BigScreen", Screen);
  MethodId Area2 = P.defineMethod(Big, "area", Type::I64, {});
  {
    FunctionBuilder B("BigScreen.area", Type::I64);
    B.addArg(Type::Ref);
    B.ret(B.constI(-1));
    P.setBody(Area2, B.finalize());
  }
  ClassId Tx = P.defineClass("Tx");
  FieldId ScreenRef =
      P.defineField(Tx, "screen", Type::Ref, false, Access::Private);
  MethodId Process = P.defineMethod(Tx, "process", Type::I64, {});
  {
    FunctionBuilder B("Tx.process", Type::I64);
    Reg This = B.addArg(Type::Ref);
    Reg S = B.getField(This, ScreenRef, Type::Ref);
    B.ret(B.callVirtual(Area, {S}, Type::I64));
    P.setBody(Process, B.finalize());
  }
  P.link();

  // Without OLC: two implementations, no inline.
  {
    Inliner Inl(P, {}, nullptr, nullptr);
    IRFunction F = P.method(Process).Bytecode;
    EXPECT_EQ(Inl.run(F, P.method(Process)).SitesInlined, 0u);
  }
  // With OLC: exact type Screen, inlined with rows = 24.
  OlcDatabase Db;
  OlcEntry E;
  E.RefField = ScreenRef;
  E.TargetClass = Screen;
  E.Constants.push_back({Rows, valueI(24)});
  Db.Entries.push_back(E);
  Inliner Inl(P, {}, &Db, nullptr);
  IRFunction &F = P.method(Process).Bytecode;
  EXPECT_EQ(Inl.run(F, P.method(Process)).SpecializationInlines, 1u);
  runOptPipeline(F);
  bool Found24 = false;
  for (const Instruction &I : F.Insts)
    if (I.Op == Opcode::ConstI && I.Imm == 24)
      Found24 = true;
  EXPECT_TRUE(Found24);
}

TEST(InlineSemantics, LoopAroundInlinedBodyReinitializesLocals) {
  // A callee local that is conditionally assigned must see its zero-init
  // on every inlined "invocation", even when the caller loops around the
  // splice. (regsNeedingInit coverage.)
  Program P;
  ClassId C = P.defineClass("C");
  MethodId Callee = P.defineMethod(C, "pickOrZero", Type::I64, {Type::I64},
                                   {.IsStatic = true});
  {
    FunctionBuilder B("C.pickOrZero", Type::I64);
    Reg X = B.addArg(Type::I64);
    Reg L = B.newReg(Type::I64); // zero unless x != 0
    auto LSkip = B.makeLabel();
    B.cbz(X, LSkip);
    Reg C9 = B.constI(9);
    B.move(L, C9);
    B.bind(LSkip);
    B.ret(L);
    P.setBody(Callee, B.finalize());
  }
  MethodId Caller = P.defineMethod(C, "sumBoth", Type::I64, {},
                                   {.IsStatic = true});
  {
    // Calls pickOrZero(1) then pickOrZero(0) inside a loop; result must be
    // 9 + 0 each iteration, not 9 + 9 (stale local).
    FunctionBuilder B("C.sumBoth", Type::I64);
    Reg Sum = B.newReg(Type::I64);
    Reg I = B.newReg(Type::I64);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    Reg Two = B.constI(2);
    B.move(Sum, Zero);
    B.move(I, Zero);
    auto LHead = B.makeLabel();
    auto LDone = B.makeLabel();
    B.bind(LHead);
    B.cbz(B.cmp(Opcode::CmpLT, I, Two), LDone);
    Reg A = B.callStatic(Callee, {One}, Type::I64);
    Reg Bb = B.callStatic(Callee, {Zero}, Type::I64);
    B.move(Sum, B.add(Sum, B.add(A, Bb)));
    B.move(I, B.add(I, One));
    B.br(LHead);
    B.bind(LDone);
    B.ret(Sum);
    P.setBody(Caller, B.finalize());
  }
  P.link();
  Inliner Inl(P, {}, nullptr, nullptr);
  IRFunction &F = P.method(Caller).Bytecode;
  InlineStats St = Inl.run(F, P.method(Caller));
  ASSERT_EQ(St.SitesInlined, 2u);
  ASSERT_EQ(verifyFunction(F), "");
  VirtualMachine VM(P, {});
  EXPECT_EQ(VM.call(Caller, {}).I, 18); // 2 * (9 + 0)
}

} // namespace
