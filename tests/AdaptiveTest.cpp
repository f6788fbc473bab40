//===-- tests/AdaptiveTest.cpp - Adaptive optimization system -----------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace dchm;
using dchm::test::CounterFixture;

namespace {

TEST(Adaptive, LazyOpt0OnFirstInvocation) {
  CounterFixture Fx;
  VirtualMachine VM(*Fx.P, {});
  const MethodInfo &M = Fx.P->method(Fx.Get);
  EXPECT_EQ(M.CurOptLevel, -1);
  Object *O = Fx.makeCounter(VM, 0);
  VM.call(Fx.Get, {valueR(O)});
  EXPECT_EQ(M.CurOptLevel, 0);
  EXPECT_GE(VM.adaptive().stats().InitialCompiles, 2u); // ctor + get
}

TEST(Adaptive, LadderClimbsAtThresholds) {
  CounterFixture Fx;
  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 50;
  Opts.Adaptive.Opt2Threshold = 200;
  VirtualMachine VM(*Fx.P, Opts);
  Object *O = Fx.makeCounter(VM, 0);
  const MethodInfo &M = Fx.P->method(Fx.Bump);
  for (int I = 0; I < 40; ++I)
    VM.call(Fx.Bump, {valueR(O)});
  EXPECT_EQ(M.CurOptLevel, 0);
  for (int I = 0; I < 30; ++I)
    VM.call(Fx.Bump, {valueR(O)});
  EXPECT_EQ(M.CurOptLevel, 1);
  for (int I = 0; I < 200; ++I)
    VM.call(Fx.Bump, {valueR(O)});
  EXPECT_EQ(M.CurOptLevel, 2);
}

TEST(Adaptive, BackedgesCountAsSamples) {
  // A method invoked once with a long loop still gets promoted (so the
  // NEXT invocation runs optimized code).
  Program P;
  ClassId C = P.defineClass("C");
  MethodId Loopy = P.defineMethod(C, "loopy", Type::I64, {Type::I64},
                                  {.IsStatic = true});
  {
    FunctionBuilder B("C.loopy", Type::I64);
    Reg N = B.addArg(Type::I64);
    Reg I = B.newReg(Type::I64);
    Reg S = B.newReg(Type::I64);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    B.move(I, Zero);
    B.move(S, Zero);
    auto LHead = B.makeLabel();
    auto LDone = B.makeLabel();
    B.bind(LHead);
    B.cbz(B.cmp(Opcode::CmpLT, I, N), LDone);
    B.move(S, B.add(S, I));
    B.move(I, B.add(I, One));
    B.br(LHead);
    B.bind(LDone);
    B.ret(S);
    P.setBody(Loopy, B.finalize());
  }
  P.link();
  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 100;
  Opts.Adaptive.Opt2Threshold = 1000000; // out of reach
  VirtualMachine VM(P, Opts);
  VM.call(Loopy, {valueI(500)});
  EXPECT_EQ(P.method(Loopy).CurOptLevel, 1);
  EXPECT_GE(P.method(Loopy).SampleCount, 500u);
}

TEST(Adaptive, Opt1RunsThePipeline) {
  CounterFixture Fx;
  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 10;
  Opts.Adaptive.Opt2Threshold = 1000000;
  VirtualMachine VM(*Fx.P, Opts);
  Object *O = Fx.makeCounter(VM, 0);
  for (int I = 0; I < 50; ++I)
    VM.call(Fx.Get, {valueR(O)});
  const MethodInfo &M = Fx.P->method(Fx.Get);
  ASSERT_EQ(M.CurOptLevel, 1);
  // The opt0 version is a verbatim translation; opt1 at least as compact.
  ASSERT_GE(M.CompiledVersions.size(), 2u);
  EXPECT_EQ(M.CompiledVersions[0]->code().Insts.size(),
            M.Bytecode.Insts.size());
  EXPECT_LE(M.CompiledVersions.back()->code().Insts.size(),
            M.Bytecode.Insts.size());
}

TEST(Adaptive, NoMutationMeansNoSpecials) {
  CounterFixture Fx;
  VMOptions Opts;
  Opts.EnableMutation = false;
  VirtualMachine VM(*Fx.P, Opts);
  VM.setMutationPlan(&Fx.Plan); // ignored
  Object *O = Fx.makeCounter(VM, 0);
  for (int I = 0; I < 6000; ++I)
    VM.call(Fx.Bump, {valueR(O)});
  EXPECT_EQ(Fx.P->method(Fx.Bump).CurOptLevel, 2);
  EXPECT_TRUE(Fx.P->method(Fx.Bump).Specials.empty());
  EXPECT_EQ(VM.compiler().stats().SpecialCompiles, 0u);
}

TEST(Adaptive, AcceleratedModeCompilesMutableMethodsImmediately) {
  CounterFixture Fx;
  VMOptions Opts;
  Opts.Adaptive.AcceleratedMutableHotness = true;
  // Normal thresholds far away: only acceleration can reach opt2.
  Opts.Adaptive.Opt1Threshold = 1000000;
  Opts.Adaptive.Opt2Threshold = 2000000;
  VirtualMachine VM(*Fx.P, Opts);
  VM.setMutationPlan(&Fx.Plan);
  Object *O = Fx.makeCounter(VM, 0);
  VM.call(Fx.Bump, {valueR(O)}); // first call triggers opt0+opt1+opt2
  const MethodInfo &M = Fx.P->method(Fx.Bump);
  EXPECT_EQ(M.CurOptLevel, 2);
  EXPECT_EQ(M.Specials.size(), 2u);
  // Non-mutable methods are unaffected by acceleration.
  VM.call(Fx.Get, {valueR(O)});
  EXPECT_EQ(Fx.P->method(Fx.Get).CurOptLevel, 0);
}

TEST(Adaptive, CompileCyclesAccumulateInMetrics) {
  CounterFixture Fx;
  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 10;
  Opts.Adaptive.Opt2Threshold = 50;
  VirtualMachine VM(*Fx.P, Opts);
  VM.setMutationPlan(&Fx.Plan);
  Object *O = Fx.makeCounter(VM, 0);
  for (int I = 0; I < 100; ++I)
    VM.call(Fx.Bump, {valueR(O)});
  RunMetrics M = VM.metrics();
  EXPECT_GT(M.CompileCycles, 0u);
  EXPECT_GT(M.SpecialCompileCycles, 0u);
  EXPECT_GT(M.CodeBytes, 0u);
  EXPECT_GT(M.SpecialCodeBytes, 0u);
  EXPECT_EQ(M.TotalCycles,
            M.ExecCycles + M.CompileCycles + M.GcCycles + M.MutationCycles);
  // Special code is cheaper to produce than a from-scratch compile
  // (generated "at the same time" as the opt2 general compile).
  EXPECT_LT(M.SpecialCompileCycles, M.CompileCycles);
}

} // namespace
