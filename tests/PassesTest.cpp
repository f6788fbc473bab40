//===-- tests/PassesTest.cpp - Optimizer pass unit + property tests -----------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "asm/Printer.h"
#include "compiler/Passes.h"
#include "ir/Verifier.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace dchm;
using dchm::test::SingleFunctionProgram;

namespace {

size_t countOp(const IRFunction &F, Opcode Op) {
  size_t N = 0;
  for (const Instruction &I : F.Insts)
    if (I.Op == Op)
      ++N;
  return N;
}

TEST(ConstProp, FoldsConstantArithmetic) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.constI(6);
  Reg Bb = B.constI(7);
  Reg M = B.mul(A, Bb);
  B.ret(M);
  IRFunction F = B.finalize();
  EXPECT_TRUE(runConstantPropagation(F));
  // The multiply becomes a constant 42.
  bool Found42 = false;
  for (const Instruction &I : F.Insts)
    if (I.Op == Opcode::ConstI && I.Imm == 42)
      Found42 = true;
  EXPECT_TRUE(Found42);
  EXPECT_EQ(verifyFunction(F), "");
}

TEST(ConstProp, FoldsThroughDiamond) {
  // Both diamond arms assign the same constant; after the join the value is
  // still constant and the final add folds.
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg X = B.newReg(Type::I64);
  auto LElse = B.makeLabel();
  auto LJoin = B.makeLabel();
  B.cbz(A, LElse);
  Reg C1 = B.constI(5);
  B.move(X, C1);
  B.br(LJoin);
  B.bind(LElse);
  Reg C2 = B.constI(5);
  B.move(X, C2);
  B.br(LJoin);
  B.bind(LJoin);
  Reg C3 = B.constI(1);
  Reg S = B.add(X, C3);
  B.ret(S);
  IRFunction F = B.finalize();
  runOptPipeline(F);
  bool Found6 = false;
  for (const Instruction &I : F.Insts)
    if (I.Op == Opcode::ConstI && I.Imm == 6)
      Found6 = true;
  EXPECT_TRUE(Found6);
}

TEST(ConstProp, DivergentJoinIsNotFolded) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg X = B.newReg(Type::I64);
  auto LElse = B.makeLabel();
  auto LJoin = B.makeLabel();
  B.cbz(A, LElse);
  Reg C1 = B.constI(5);
  B.move(X, C1);
  B.br(LJoin);
  B.bind(LElse);
  Reg C2 = B.constI(9);
  B.move(X, C2);
  B.br(LJoin);
  B.bind(LJoin);
  B.ret(X);
  IRFunction F = B.finalize();
  SingleFunctionProgram S0 = SingleFunctionProgram::create(F);
  EXPECT_EQ(S0.run({valueI(1)}).I, 5);
  runOptPipeline(F);
  SingleFunctionProgram S1 = SingleFunctionProgram::create(F);
  EXPECT_EQ(S1.run({valueI(1)}).I, 5);
  EXPECT_EQ(S1.run({valueI(0)}).I, 9);
}

TEST(ConstProp, NonArgRegistersStartAtZero) {
  // Reading a never-written register yields 0 (zero-initialized frames);
  // constant propagation exploits exactly that.
  FunctionBuilder B("f", Type::I64);
  B.addArg(Type::I64);
  Reg X = B.newReg(Type::I64);
  Reg C = B.constI(3);
  Reg S = B.add(X, C); // X is always 0
  B.ret(S);
  IRFunction F = B.finalize();
  runOptPipeline(F);
  bool Found3 = false;
  for (const Instruction &I : F.Insts)
    if (I.Op == Opcode::ConstI && I.Imm == 3 && I.Dst == S)
      Found3 = true;
  EXPECT_TRUE(Found3);
}

TEST(ConstProp, FoldsConditionalBranch) {
  FunctionBuilder B("f", Type::I64);
  Reg C = B.constI(1);
  auto LDead = B.makeLabel();
  B.cbz(C, LDead); // never taken
  Reg R1 = B.constI(10);
  B.ret(R1);
  B.bind(LDead);
  Reg R2 = B.constI(20);
  B.ret(R2);
  IRFunction F = B.finalize();
  runOptPipeline(F);
  // The dead arm disappears entirely.
  bool Found20 = false;
  for (const Instruction &I : F.Insts)
    if (I.Op == Opcode::ConstI && I.Imm == 20)
      Found20 = true;
  EXPECT_FALSE(Found20);
  EXPECT_EQ(countOp(F, Opcode::Cbz), 0u);
  SingleFunctionProgram S = SingleFunctionProgram::create(F);
  EXPECT_EQ(S.run({}).I, 10);
}

TEST(ConstProp, DoesNotFoldTrappingDivision) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.constI(5);
  Reg Z = B.constI(0);
  Reg D = B.div(A, Z); // would trap; must not fold
  B.ret(D);
  IRFunction F = B.finalize();
  runConstantPropagation(F);
  EXPECT_EQ(countOp(F, Opcode::Div), 1u);
}

TEST(Dce, RemovesDeadArithmetic) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg Dead = B.mul(A, A);
  (void)Dead;
  B.ret(A);
  IRFunction F = B.finalize();
  EXPECT_TRUE(runDeadCodeElimination(F));
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u);
  EXPECT_EQ(verifyFunction(F), "");
}

TEST(Dce, KeepsSideEffects) {
  FunctionBuilder B("f", Type::Void);
  Reg O = B.addArg(Type::Ref);
  Reg V = B.constI(1);
  B.putField(O, 0, V); // side effect: must stay even though nothing reads it
  B.retVoid();
  IRFunction F = B.finalize();
  runDeadCodeElimination(F);
  EXPECT_EQ(countOp(F, Opcode::PutField), 1u);
}

TEST(Dce, RemovesDeadFieldLoad) {
  // Off the receiver: the call null-checked it, so the load cannot trap.
  FunctionBuilder B("f", Type::Void);
  Reg This = B.addArg(Type::Ref);
  B.getField(This, 0, Type::I64); // dead load
  B.retVoid();
  IRFunction F = B.finalize();
  F.HasReceiver = true;
  runDeadCodeElimination(F);
  EXPECT_EQ(countOp(F, Opcode::GetField), 0u);
}

TEST(Dce, KeepsDeadFieldLoadOffNonReceiverRef) {
  // Off a ref argument that may be null: the load's trap is behaviour, so
  // it stays though its value is dead.
  FunctionBuilder B("f", Type::Void);
  Reg This = B.addArg(Type::Ref);
  Reg Other = B.addArg(Type::Ref);
  B.getField(This, 0, Type::I64);  // dead, removable
  B.getField(Other, 0, Type::I64); // dead, may trap
  B.retVoid();
  IRFunction F = B.finalize();
  F.HasReceiver = true;
  runDeadCodeElimination(F);
  ASSERT_EQ(countOp(F, Opcode::GetField), 1u);
  EXPECT_EQ(F.Insts[0].A, Other);
}

TEST(Dce, RemovesUnreachableCode) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  B.ret(A);
  Reg D1 = B.constI(1); // unreachable
  Reg D2 = B.mul(D1, D1);
  Reg D3 = B.add(D2, D1);
  B.ret(D3);
  IRFunction F = B.finalize();
  runDeadCodeElimination(F);
  // The unreachable tail shrinks; only the guaranteed final terminator (and
  // anything it transitively references) may survive.
  EXPECT_LE(F.Insts.size(), 4u);
  EXPECT_EQ(F.Insts[0].Op, Opcode::Ret);
}

TEST(Dce, TransitiveLiveness) {
  // c feeds b feeds a feeds ret: all live. An independent chain dies.
  FunctionBuilder B("f", Type::I64);
  Reg X = B.addArg(Type::I64);
  Reg C = B.add(X, X);
  Reg Bb = B.add(C, X);
  Reg A = B.add(Bb, C);
  Reg D1 = B.mul(X, X);
  Reg D2 = B.mul(D1, D1);
  (void)D2;
  B.ret(A);
  IRFunction F = B.finalize();
  runDeadCodeElimination(F);
  EXPECT_EQ(countOp(F, Opcode::Add), 3u);
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u);
}

TEST(BranchFold, RemovesBranchToNext) {
  FunctionBuilder B("f", Type::Void);
  auto L = B.makeLabel();
  B.br(L);
  B.bind(L);
  B.retVoid();
  IRFunction F = B.finalize();
  EXPECT_TRUE(runBranchFolding(F));
  EXPECT_EQ(F.Insts.size(), 1u);
  EXPECT_EQ(F.Insts[0].Op, Opcode::Ret);
}

TEST(BranchFold, ThreadsBranchChains) {
  FunctionBuilder B("f", Type::Void);
  Reg A = B.addArg(Type::I64);
  auto LHop = B.makeLabel();
  auto LEnd = B.makeLabel();
  B.cbnz(A, LHop);
  B.retVoid();
  B.bind(LHop);
  B.br(LEnd); // the cbnz should end up pointing straight at LEnd
  B.bind(LEnd);
  B.retVoid();
  IRFunction F = B.finalize();
  runBranchFolding(F);
  // After threading + folding, the cbnz target is the final ret.
  ASSERT_EQ(F.Insts[0].Op, Opcode::Cbnz);
  EXPECT_EQ(F.Insts[static_cast<size_t>(F.Insts[0].Imm)].Op, Opcode::Ret);
}

TEST(StrengthReduce, MulByZeroAndOne) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg Zero = B.constI(0);
  Reg One = B.constI(1);
  Reg M0 = B.mul(A, Zero);
  Reg M1 = B.mul(A, One);
  Reg S = B.add(M0, M1);
  B.ret(S);
  IRFunction F = B.finalize();
  EXPECT_TRUE(runStrengthReduction(F));
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u);
  SingleFunctionProgram S2 = SingleFunctionProgram::create(F);
  EXPECT_EQ(S2.run({valueI(9)}).I, 9);
}

TEST(StrengthReduce, AddZeroIdentity) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg Zero = B.constI(0);
  Reg S = B.add(A, Zero);
  B.ret(S);
  IRFunction F = B.finalize();
  EXPECT_TRUE(runStrengthReduction(F));
  EXPECT_EQ(countOp(F, Opcode::Add), 0u);
}

TEST(StrengthReduce, MulByTwoBecomesAdd) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg Two = B.constI(2);
  Reg M = B.mul(A, Two);
  B.ret(M);
  IRFunction F = B.finalize();
  EXPECT_TRUE(runStrengthReduction(F));
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u);
  EXPECT_EQ(countOp(F, Opcode::Add), 1u);
  SingleFunctionProgram S = SingleFunctionProgram::create(F);
  EXPECT_EQ(S.run({valueI(21)}).I, 42);
}

TEST(StrengthReduce, RemByOneIsZero) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg One = B.constI(1);
  Reg R = B.rem(A, One);
  B.ret(R);
  IRFunction F = B.finalize();
  runStrengthReduction(F);
  EXPECT_EQ(countOp(F, Opcode::Rem), 0u);
  SingleFunctionProgram S = SingleFunctionProgram::create(F);
  EXPECT_EQ(S.run({valueI(77)}).I, 0);
}

TEST(CopyProp, ForwardsMoveSources) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg X = B.newReg(Type::I64);
  B.move(X, A);
  Reg S = B.add(X, X);
  B.ret(S);
  IRFunction F = B.finalize();
  EXPECT_TRUE(runCopyPropagation(F));
  // The add now reads A directly.
  bool AddUsesA = false;
  for (const Instruction &I : F.Insts)
    if (I.Op == Opcode::Add && I.A == A && I.B == A)
      AddUsesA = true;
  EXPECT_TRUE(AddUsesA);
}

TEST(CopyProp, InvalidatedByRedefinition) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg X = B.newReg(Type::I64);
  B.move(X, A);
  Reg C = B.constI(7);
  B.move(X, C); // X no longer a copy of A
  Reg S = B.add(X, X);
  B.ret(S);
  IRFunction F = B.finalize();
  runCopyPropagation(F);
  SingleFunctionProgram S2 = SingleFunctionProgram::create(F);
  EXPECT_EQ(S2.run({valueI(100)}).I, 14);
}

TEST(Pipeline, SalaryDbStyleIfChainCollapses) {
  // Mirrors what the Specializer + pipeline do to raise(): a constant mode
  // selector folds the chain to a single arm.
  FunctionBuilder B("f", Type::I64);
  Reg X = B.addArg(Type::I64);
  Reg Mode = B.constI(2);
  Reg Out = B.newReg(Type::I64);
  auto L1 = B.makeLabel();
  auto L2 = B.makeLabel();
  auto LEnd = B.makeLabel();
  Reg C0 = B.constI(0);
  B.cbnz(B.cmp(Opcode::CmpNE, Mode, C0), L1);
  B.move(Out, B.add(X, C0));
  B.br(LEnd);
  B.bind(L1);
  Reg C1 = B.constI(1);
  B.cbnz(B.cmp(Opcode::CmpNE, Mode, C1), L2);
  B.move(Out, B.mul(X, X));
  B.br(LEnd);
  B.bind(L2);
  Reg C7 = B.constI(7);
  B.move(Out, B.add(X, C7));
  B.br(LEnd);
  B.bind(LEnd);
  B.ret(Out);
  IRFunction F = B.finalize();
  size_t Before = F.Insts.size();
  runOptPipeline(F);
  EXPECT_LT(F.Insts.size(), Before / 2);
  EXPECT_EQ(countOp(F, Opcode::Cbnz), 0u);
  SingleFunctionProgram S = SingleFunctionProgram::create(F);
  EXPECT_EQ(S.run({valueI(5)}).I, 12);
}

TEST(Pipeline, IsIdempotent) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg C = B.constI(3);
  Reg S = B.add(A, C);
  Reg M = B.mul(S, C);
  B.ret(M);
  IRFunction F = B.finalize();
  SingleFunctionProgram Prog = SingleFunctionProgram::create(F);
  runOptPipeline(F);
  std::string Once = printMethod(*Prog.P, Prog.Main, F);
  runOptPipeline(F);
  EXPECT_EQ(printMethod(*Prog.P, Prog.Main, F), Once);
}

// --- Property sweep: optimized code behaves exactly like the original ------

/// Generates a random function of two i64 arguments with arithmetic, an
/// if/else on a comparison, and a bounded counted loop. Division only ever
/// uses nonzero constant divisors.
IRFunction randomFunction(uint64_t Seed) {
  Rng R(Seed);
  FunctionBuilder B("rand", Type::I64);
  Reg A0 = B.addArg(Type::I64);
  Reg A1 = B.addArg(Type::I64);
  std::vector<Reg> Pool{A0, A1};
  auto Pick = [&] { return Pool[R.nextBelow(Pool.size())]; };
  auto RandomArith = [&](unsigned N) {
    for (unsigned I = 0; I < N; ++I) {
      switch (R.nextBelow(7)) {
      case 0:
        Pool.push_back(B.add(Pick(), Pick()));
        break;
      case 1:
        Pool.push_back(B.sub(Pick(), Pick()));
        break;
      case 2:
        Pool.push_back(B.mul(Pick(), Pick()));
        break;
      case 3:
        Pool.push_back(B.xorI(Pick(), Pick()));
        break;
      case 4:
        Pool.push_back(B.constI(R.nextInRange(-8, 8)));
        break;
      case 5: {
        Reg D = B.constI(R.nextInRange(1, 9));
        Pool.push_back(B.div(Pick(), D));
        break;
      }
      default:
        Pool.push_back(
            B.cmp(Opcode::CmpLT, Pick(), Pick()));
        break;
      }
    }
  };
  RandomArith(4);
  // Diamond.
  Reg Out = B.newReg(Type::I64);
  auto LElse = B.makeLabel();
  auto LJoin = B.makeLabel();
  B.cbz(B.cmp(Opcode::CmpLT, Pick(), Pick()), LElse);
  RandomArith(3);
  B.move(Out, Pick());
  B.br(LJoin);
  B.bind(LElse);
  RandomArith(3);
  B.move(Out, Pick());
  B.br(LJoin);
  B.bind(LJoin);
  // Counted loop accumulating into Out.
  Reg I = B.newReg(Type::I64);
  Reg Zero = B.constI(0);
  Reg One = B.constI(1);
  Reg N = B.constI(static_cast<int64_t>(R.nextBelow(6)));
  B.move(I, Zero);
  auto LHead = B.makeLabel();
  auto LDone = B.makeLabel();
  B.bind(LHead);
  B.cbz(B.cmp(Opcode::CmpLT, I, N), LDone);
  B.move(Out, B.add(B.mul(Out, B.constI(3)), I));
  B.move(I, B.add(I, One));
  B.br(LHead);
  B.bind(LDone);
  B.ret(Out);
  return B.finalize();
}

class PipelineEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineEquivalence, OptimizedMatchesOriginal) {
  IRFunction Original = randomFunction(GetParam());
  ASSERT_EQ(verifyFunction(Original), "");
  IRFunction Optimized = Original;
  runOptPipeline(Optimized);
  ASSERT_EQ(verifyFunction(Optimized), "");
  SingleFunctionProgram SO = SingleFunctionProgram::create(Original);
  SingleFunctionProgram SP = SingleFunctionProgram::create(Optimized);
  Rng R(GetParam() * 33 + 1);
  for (int Trial = 0; Trial < 8; ++Trial) {
    int64_t X = R.nextInRange(-100, 100);
    int64_t Y = R.nextInRange(-100, 100);
    Value VO = SO.run({valueI(X), valueI(Y)});
    Value VP = SP.run({valueI(X), valueI(Y)});
    EXPECT_EQ(VO.I, VP.I) << "seed=" << GetParam() << " x=" << X << " y=" << Y;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFunctions, PipelineEquivalence,
                         ::testing::Range<uint64_t>(1, 41));

} // namespace
