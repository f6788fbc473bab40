//===-- tests/IrBuilderTest.cpp - FunctionBuilder unit tests ------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "asm/Printer.h"
#include "ir/Builder.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace dchm;

namespace {

TEST(IrBuilder, ArgumentRegistersComeFirst) {
  FunctionBuilder B("f", Type::I64);
  Reg A0 = B.addArg(Type::Ref);
  Reg A1 = B.addArg(Type::I64);
  EXPECT_EQ(A0, 0);
  EXPECT_EQ(A1, 1);
  Reg L = B.constI(5);
  EXPECT_EQ(L, 2);
  B.ret(L);
  IRFunction F = B.finalize();
  EXPECT_EQ(F.NumArgs, 2);
  EXPECT_EQ(F.RegTypes[0], Type::Ref);
  EXPECT_EQ(F.RegTypes[1], Type::I64);
}

TEST(IrBuilder, ConstEmitsTypedRegister) {
  FunctionBuilder B("f", Type::F64);
  Reg C = B.constF(2.5);
  B.ret(C);
  IRFunction F = B.finalize();
  ASSERT_EQ(F.Insts.size(), 2u);
  EXPECT_EQ(F.Insts[0].Op, Opcode::ConstF);
  EXPECT_DOUBLE_EQ(F.Insts[0].FImm, 2.5);
  EXPECT_EQ(F.RegTypes[C], Type::F64);
}

TEST(IrBuilder, ForwardLabelIsPatched) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  auto L = B.makeLabel();
  B.cbz(A, L);            // 1 (after the cmp-free cbz)
  Reg One = B.constI(1);  // skipped when A == 0
  B.ret(One);
  B.bind(L);
  Reg Zero = B.constI(0);
  B.ret(Zero);
  IRFunction F = B.finalize();
  // cbz is instruction 0; its target must be the first inst after bind(L).
  EXPECT_EQ(F.Insts[0].Op, Opcode::Cbz);
  EXPECT_EQ(F.Insts[0].Imm, 3);
}

TEST(IrBuilder, BackwardLabelBranches) {
  FunctionBuilder B("f", Type::Void);
  Reg A = B.addArg(Type::I64);
  auto LHead = B.makeLabel();
  B.bind(LHead);
  auto LDone = B.makeLabel();
  B.cbz(A, LDone);
  B.br(LHead);
  B.bind(LDone);
  B.retVoid();
  IRFunction F = B.finalize();
  EXPECT_EQ(F.Insts[1].Op, Opcode::Br);
  EXPECT_EQ(F.Insts[1].Imm, 0);
}

TEST(IrBuilder, FinalizedFunctionVerifies) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg Bb = B.addArg(Type::I64);
  Reg S = B.add(A, Bb);
  Reg M = B.mul(S, S);
  B.ret(M);
  IRFunction F = B.finalize();
  EXPECT_EQ(verifyFunction(F), "");
}

TEST(IrBuilder, CallCarriesArgsAndType) {
  FunctionBuilder B("f", Type::I64);
  Reg R = B.addArg(Type::Ref);
  Reg V = B.callVirtual(/*MethodId=*/7, {R}, Type::I64);
  B.ret(V);
  IRFunction F = B.finalize();
  EXPECT_EQ(F.Insts[0].Op, Opcode::CallVirtual);
  EXPECT_EQ(F.Insts[0].Imm, 7);
  ASSERT_EQ(F.Insts[0].Args.size(), 1u);
  EXPECT_EQ(F.Insts[0].Args[0], R);
  EXPECT_EQ(F.Insts[0].Ty, Type::I64);
}

TEST(IrBuilder, VoidCallHasNoDestination) {
  FunctionBuilder B("f", Type::Void);
  Reg R = B.addArg(Type::Ref);
  Reg D = B.callVirtual(3, {R}, Type::Void);
  B.retVoid();
  EXPECT_EQ(D, NoReg);
  IRFunction F = B.finalize();
  EXPECT_EQ(F.Insts[0].Dst, NoReg);
}

TEST(IrBuilder, FieldOpsRecordSymbolicIds) {
  FunctionBuilder B("f", Type::I64);
  Reg O = B.addArg(Type::Ref);
  Reg V = B.getField(O, /*FieldId=*/12, Type::I64);
  B.putField(O, 12, V);
  B.ret(V);
  IRFunction F = B.finalize();
  EXPECT_EQ(F.Insts[0].Imm, 12);
  EXPECT_EQ(F.Insts[1].Imm, 12);
  EXPECT_EQ(F.Insts[1].B, V);
}

TEST(IrBuilder, PrinterMentionsOpcodeAndRegs) {
  FunctionBuilder B("pretty", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg S = B.add(A, A);
  B.ret(S);
  auto Prog = test::SingleFunctionProgram::create(B.finalize());
  EXPECT_EQ(printMethod(*Prog.P, Prog.Main, Prog.P->method(Prog.Main).Bytecode),
            "  method main(%0: i64) -> i64 static {\n"
            "    %1 = add %0, %0\n"
            "    ret %1\n"
            "  }\n");
}

TEST(IrBuilderDeath, RetWithValueFromVoidFunction) {
  FunctionBuilder B("f", Type::Void);
  Reg A = B.addArg(Type::I64);
  EXPECT_DEATH(B.ret(A), "value return");
}

TEST(IrBuilderDeath, ArgAfterInstruction) {
  FunctionBuilder B("f", Type::Void);
  B.constI(1);
  EXPECT_DEATH(B.addArg(Type::I64), "before instructions");
}

TEST(IrBuilderDeath, UnboundLabel) {
  FunctionBuilder B("f", Type::Void);
  auto L = B.makeLabel();
  B.br(L);
  B.retVoid();
  EXPECT_DEATH(B.finalize(), "unbound label");
}

TEST(IrBuilderDeath, DoubleBind) {
  FunctionBuilder B("f", Type::Void);
  auto L = B.makeLabel();
  B.bind(L);
  EXPECT_DEATH(B.bind(L), "bound twice");
}

TEST(IrBuilderDeath, MissingTerminator) {
  FunctionBuilder B("f", Type::Void);
  B.constI(1);
  EXPECT_DEATH(B.finalize(), "terminator");
}

} // namespace
