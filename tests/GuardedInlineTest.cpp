//===-- tests/GuardedInlineTest.cpp - Guarded inlining + ClassEq --------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// Tests for the Jikes-style guarded inlining extension (paper section 3.2.1
/// mentions Jikes supports it when "there is not a single precise target
/// callee"): a polymorphic virtual call inlines its predicted target under
/// an exact-class test, with the original call as the slow path.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "compiler/Inliner.h"
#include "compiler/Passes.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace dchm;

namespace {

/// A/B hierarchy where tag() is polymorphic (A returns 1, B returns 2),
/// plus a static caller dispatching on an arbitrary receiver.
struct PolyFixture {
  std::unique_ptr<Program> Prog = test::assemble(R"(
class A {
  ctor <init>() {
    ret
  }
  method tag() -> i64 {
    %1 = consti 1
    ret %1
  }
  method go(%0: ref) -> i64 static {
    %1 = callvirtual A.tag(%0)
    %2 = consti 10
    %3 = add %1, %2
    ret %3
  }
}
class B extends A {
  ctor <init>() {
    callspecial A.<init>(%this)
    ret
  }
  method tag() -> i64 {
    %1 = consti 2
    ret %1
  }
}
)");
  Program &P = *Prog;
  ProgramIds Ids{P};
  ClassId A = Ids.cls("A"), B = Ids.cls("B");
  MethodId ACtor = Ids.method("A", "<init>"), BCtor = Ids.method("B", "<init>"),
           ATag = Ids.method("A", "tag"), BTag = Ids.method("B", "tag"),
           Caller = Ids.method("A", "go");

  Object *make(VirtualMachine &VM, ClassId C, MethodId Ctor) {
    ClassInfo &CI = P.cls(C);
    Object *O = VM.heap().allocateInstance(CI, CI.ClassTib);
    VM.call(Ctor, {valueR(O)});
    return O;
  }
};

TEST(GuardedInline, OffByDefault) {
  PolyFixture Fx;
  Inliner Inl(Fx.P, {}, nullptr, nullptr);
  IRFunction F = Fx.P.method(Fx.Caller).Bytecode;
  InlineStats S = Inl.run(F, Fx.P.method(Fx.Caller));
  EXPECT_EQ(S.GuardedInlines, 0u);
  EXPECT_EQ(S.SitesInlined, 0u);
}

TEST(GuardedInline, EmitsGuardAndSlowPath) {
  PolyFixture Fx;
  InlinerConfig Cfg;
  Cfg.EnableGuardedInlining = true;
  Inliner Inl(Fx.P, Cfg, nullptr, nullptr);
  IRFunction &F = Fx.P.method(Fx.Caller).Bytecode;
  InlineStats S = Inl.run(F, Fx.P.method(Fx.Caller));
  EXPECT_EQ(S.GuardedInlines, 1u);
  ASSERT_EQ(verifyFunction(F), "");
  size_t Guards = 0, SlowCalls = 0;
  for (const Instruction &I : F.Insts) {
    if (I.Op == Opcode::ClassEq)
      ++Guards;
    if (I.Op == Opcode::CallVirtual)
      ++SlowCalls;
  }
  EXPECT_EQ(Guards, 1u);
  EXPECT_EQ(SlowCalls, 1u); // the original call survives as the slow path
}

TEST(GuardedInline, FastAndSlowPathsBothCorrect) {
  PolyFixture Fx;
  // Inline before any execution so compiled code contains the guard.
  InlinerConfig Cfg;
  Cfg.EnableGuardedInlining = true;
  Inliner Inl(Fx.P, Cfg, nullptr, nullptr);
  Inl.run(Fx.P.method(Fx.Caller).Bytecode, Fx.P.method(Fx.Caller));

  VirtualMachine VM(Fx.P, {});
  Object *OA = Fx.make(VM, Fx.A, Fx.ACtor); // guard hits: inlined body
  Object *OB = Fx.make(VM, Fx.B, Fx.BCtor); // guard misses: slow path
  EXPECT_EQ(VM.call(Fx.Caller, {valueR(OA)}).I, 11);
  EXPECT_EQ(VM.call(Fx.Caller, {valueR(OB)}).I, 12);
}

TEST(GuardedInline, VMMetricsCountGuardedInlines) {
  // The opt2 recompile's inliner counts reach the VM's run metrics.
  PolyFixture Fx;
  VMOptions Opts;
  Opts.Inline.EnableGuardedInlining = true;
  Opts.Adaptive.Opt1Threshold = 2;
  Opts.Adaptive.Opt2Threshold = 4;
  VirtualMachine VM(Fx.P, Opts);
  Object *OA = Fx.make(VM, Fx.A, Fx.ACtor);
  Object *OB = Fx.make(VM, Fx.B, Fx.BCtor);
  for (int I = 0; I < 8; ++I) {
    EXPECT_EQ(VM.call(Fx.Caller, {valueR(OA)}).I, 11);
    EXPECT_EQ(VM.call(Fx.Caller, {valueR(OB)}).I, 12);
  }
  ASSERT_EQ(Fx.P.method(Fx.Caller).CurOptLevel.load(), 2);
  EXPECT_GT(VM.metrics().Inlining.GuardedInlines, 0u);
  EXPECT_EQ(VM.metrics().Inlining.GuardedInlines,
            VM.compiler().stats().Inlining.GuardedInlines);
}

TEST(GuardedInline, GuardSeesThroughSpecialTibs) {
  // The exact-class guard must use the type-information entry: a mutated
  // object (special TIB) of the predicted class still takes the fast path,
  // i.e. ClassEq(A-instance-with-special-TIB, A) == 1.
  test::CounterFixture Fx;
  VirtualMachine VM(*Fx.P, {});
  VM.setMutationPlan(&Fx.Plan);
  Object *O = Fx.makeCounter(VM, 0);
  ASSERT_TRUE(O->tib()->isSpecial());
  // Execute a ClassEq through a fresh single-method program sharing the
  // object: hand-check via the mutation fixture's program.
  // (ClassEq is interpreter-level; emulate its semantics check directly.)
  EXPECT_EQ(O->tib()->Cls->Id, Fx.Counter);
}

TEST(GuardedInline, PipelineKeepsGuardIntact) {
  PolyFixture Fx;
  InlinerConfig Cfg;
  Cfg.EnableGuardedInlining = true;
  Inliner Inl(Fx.P, Cfg, nullptr, nullptr);
  IRFunction &F = Fx.P.method(Fx.Caller).Bytecode;
  Inl.run(F, Fx.P.method(Fx.Caller));
  runOptPipeline(F);
  ASSERT_EQ(verifyFunction(F), "");
  size_t Guards = 0;
  for (const Instruction &I : F.Insts)
    if (I.Op == Opcode::ClassEq)
      ++Guards;
  EXPECT_EQ(Guards, 1u); // the guard cannot be folded away

  VirtualMachine VM(Fx.P, {});
  Object *OB = Fx.make(VM, Fx.B, Fx.BCtor);
  EXPECT_EQ(VM.call(Fx.Caller, {valueR(OB)}).I, 12);
}

TEST(GuardedInline, RespectsTradeoffForMutableMethods) {
  // A polymorphic *mutable* method: guarded inlining of the general body
  // would bypass specialization, so the N > M + k trade-off must reject the
  // guarded inline exactly like the unguarded one.
  Program P;
  ClassId A = P.defineClass("A");
  FieldId Mode = P.defineField(A, "mode", Type::I64, false);
  MethodId Am = P.defineMethod(A, "m", Type::I64, {});
  {
    FunctionBuilder F("A.m", Type::I64);
    Reg This = F.addArg(Type::Ref);
    F.ret(F.getField(This, Mode, Type::I64));
    P.setBody(Am, F.finalize());
  }
  ClassId B = P.defineClass("B", A);
  MethodId Bm = P.defineMethod(B, "m", Type::I64, {}); // makes m polymorphic
  {
    FunctionBuilder F("B.m", Type::I64);
    F.addArg(Type::Ref);
    F.ret(F.constI(-1));
    P.setBody(Bm, F.finalize());
  }
  MethodId Caller = P.defineMethod(A, "go", Type::I64, {Type::Ref},
                                   {.IsStatic = true});
  {
    FunctionBuilder F("A.go", Type::I64);
    Reg O = F.addArg(Type::Ref);
    F.ret(F.callVirtual(Am, {O}, Type::I64));
    P.setBody(Caller, F.finalize());
  }
  P.link();

  MutationPlan Plan;
  MutableClassPlan CP;
  CP.Cls = A;
  CP.InstanceStateFields = {Mode};
  HotState S0;
  S0.InstanceVals = {valueI(0)};
  CP.HotStates = {S0};
  CP.MutableMethods = {Am};
  Plan.Classes.push_back(CP);
  P.method(Am).IsMutable = true;

  InlinerConfig Cfg;
  Cfg.EnableGuardedInlining = true;
  Inliner Inl(P, Cfg, nullptr, &Plan);
  IRFunction &F = P.method(Caller).Bytecode;
  InlineStats S = Inl.run(F, P.method(Caller));
  EXPECT_EQ(S.GuardedInlines, 0u);
  EXPECT_EQ(S.SitesInlined, 0u);
  EXPECT_EQ(S.TradeoffRejections, 1u); // N=0 <= M=1 + k=0
}

} // namespace
