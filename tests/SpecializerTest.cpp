//===-- tests/SpecializerTest.cpp - State-field specialization ----------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "compiler/Passes.h"
#include "compiler/Specializer.h"

#include <gtest/gtest.h>

using namespace dchm;

namespace {

size_t countOp(const IRFunction &F, Opcode Op) {
  size_t N = 0;
  for (const Instruction &I : F.Insts)
    if (I.Op == Op)
      ++N;
  return N;
}

struct SpecFixture : ::testing::Test {
  test::CounterFixture Fx{/*WithStaticField=*/true};
  const MutableClassPlan &plan() { return Fx.Plan.Classes[0]; }
};

TEST_F(SpecFixture, FoldsReceiverStateFieldLoad) {
  IRFunction F = Fx.P->method(Fx.Bump).Bytecode;
  unsigned Folded = specializeForState(F, plan(), 0);
  EXPECT_GE(Folded, 1u);
  // The mode load is gone; a ConstI 0 replaced it.
  for (const Instruction &I : F.Insts) {
    if (I.Op == Opcode::GetField) {
      EXPECT_NE(static_cast<FieldId>(I.Imm), Fx.Mode);
    }
  }
}

TEST_F(SpecFixture, PipelineCollapsesSpecializedChain) {
  IRFunction F = Fx.P->method(Fx.Bump).Bytecode;
  size_t Before = F.Insts.size();
  specializeForState(F, plan(), 1); // mode == 1
  runOptPipeline(F);
  EXPECT_LT(F.Insts.size(), Before);
  EXPECT_EQ(countOp(F, Opcode::Cbnz), 0u); // branch chain folded away
  // Only the +10 arm survives.
  bool FoundTen = false;
  for (const Instruction &I : F.Insts)
    if (I.Op == Opcode::ConstI && I.Imm == 10)
      FoundTen = true;
  EXPECT_TRUE(FoundTen);
}

TEST_F(SpecFixture, StaticStateFieldsFoldEverywhere) {
  IRFunction F = Fx.P->method(Fx.StaticScale).Bytecode;
  unsigned Folded = specializeForState(F, plan(), 0);
  EXPECT_EQ(Folded, 1u);
  EXPECT_EQ(countOp(F, Opcode::GetStatic), 0u);
  runOptPipeline(F);
  // globalMode == 0 in state 0, so the whole method folds to return 0.
  bool FoundZero = false;
  for (const Instruction &I : F.Insts)
    if (I.Op == Opcode::ConstI && I.Imm == 0)
      FoundZero = true;
  EXPECT_TRUE(FoundZero);
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u);
}

TEST_F(SpecFixture, NonReceiverLoadIsNotFolded) {
  // A method loading the state field off *another* object must keep the
  // load: the special TIB only encodes the receiver's state.
  IRFunction F = [&] {
    FunctionBuilder B("other", Type::I64);
    B.addArg(Type::Ref);          // this
    Reg Other = B.addArg(Type::Ref); // some other Counter
    Reg V = B.getField(Other, Fx.Mode, Type::I64);
    B.ret(V);
    return B.finalize();
  }();
  F.HasReceiver = true; // an instance method body: register 0 is `this`
  unsigned Folded = specializeForState(F, plan(), 0);
  EXPECT_EQ(Folded, 0u);
  EXPECT_EQ(countOp(F, Opcode::GetField), 1u);
}

TEST_F(SpecFixture, CountSpecializableReadsMatchesM) {
  const MethodInfo &M = Fx.P->method(Fx.Bump);
  // bump() reads `mode` once.
  EXPECT_EQ(countSpecializableReads(M.Bytecode, plan()), 1u);
  const MethodInfo &S = Fx.P->method(Fx.StaticScale);
  EXPECT_EQ(countSpecializableReads(S.Bytecode, plan()), 1u);
}

TEST_F(SpecFixture, SpecializedCodeBehavesLikeGeneralInState) {
  // The core no-guards guarantee: for an object in hot state k, the
  // specialized body computes exactly what the general body computes.
  for (size_t State = 0; State < plan().HotStates.size(); ++State) {
    int64_t ModeV = plan().HotStates[State].InstanceVals[0].I;

    VMOptions Opts;
    Opts.EnableMutation = false;
    test::CounterFixture FreshG; // general run
    VirtualMachine VMG(*FreshG.P, Opts);
    Object *OG = FreshG.makeCounter(VMG, ModeV);
    VMG.call(FreshG.Bump, {valueR(OG)});
    int64_t General = VMG.call(FreshG.Get, {valueR(OG)}).I;

    test::CounterFixture FreshS; // specialized run (mutation on)
    VirtualMachine VMS(*FreshS.P, {});
    VMS.setMutationPlan(&FreshS.Plan);
    Object *OS = FreshS.makeCounter(VMS, ModeV);
    // Force opt2 so the dispatch really lands in specialized code.
    for (int I = 0; I < 5000; ++I)
      VMS.call(FreshS.Bump, {valueR(OS)});
    VMS.call(FreshS.Bump, {valueR(OS)});
    int64_t Specialized = VMS.call(FreshS.Get, {valueR(OS)}).I;
    EXPECT_EQ(Specialized % 10, General % 10)
        << "state " << State; // same increment arm
  }
}

TEST_F(SpecFixture, FloatStateValuesFoldToConstF) {
  Program P;
  ClassId C = P.defineClass("C");
  FieldId Rate = P.defineField(C, "rate", Type::F64, false);
  MethodId Apply = P.defineMethod(C, "apply", Type::F64, {Type::F64});
  {
    FunctionBuilder B("C.apply", Type::F64);
    Reg This = B.addArg(Type::Ref);
    Reg X = B.addArg(Type::F64);
    Reg R = B.getField(This, Rate, Type::F64);
    B.ret(B.fmul(X, R));
    P.setBody(Apply, B.finalize());
  }
  P.link();
  MutableClassPlan CP;
  CP.Cls = C;
  CP.InstanceStateFields = {Rate};
  HotState S;
  S.InstanceVals = {valueF(1.5)};
  CP.HotStates = {S};
  CP.MutableMethods = {Apply};

  IRFunction F = P.method(Apply).Bytecode;
  EXPECT_EQ(specializeForState(F, CP, 0), 1u);
  bool FoundConstF = false;
  for (const Instruction &I : F.Insts)
    if (I.Op == Opcode::ConstF && I.FImm == 1.5)
      FoundConstF = true;
  EXPECT_TRUE(FoundConstF);
}

} // namespace
