//===-- tests/OpcodeTableTest.cpp - The one opcode table ------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// Tests for the opcode table (ir/Opcode.h): every per-opcode fact is pinned
/// here, and the layers that read the table (verifier, builder, assembler,
/// constant folder) agree with it.
///
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "compiler/Eval.h"
#include "ir/Builder.h"
#include "ir/Verifier.h"
#include "runtime/CostModel.h"

#include <gtest/gtest.h>

#include <string>

using namespace dchm;

namespace {

struct PinnedRow {
  Opcode Op;
  const char *Mnemonic;
  uint64_t Cycles;
  bool RemovableWhenDead;
  OpFamily Family;
};

// Every opcode's mnemonic, simulated cycles, purity and family. A changed
// value here changes disassembly, simulated cycles or what DCE may delete.
constexpr PinnedRow Pinned[] = {
    {Opcode::ConstI, "consti", 1, true, OpFamily::Other},
    {Opcode::ConstF, "constf", 1, true, OpFamily::Other},
    {Opcode::ConstNull, "constnull", 1, true, OpFamily::Other},
    {Opcode::Move, "move", 1, true, OpFamily::Other},
    {Opcode::Add, "add", 1, true, OpFamily::Binop},
    {Opcode::Sub, "sub", 1, true, OpFamily::Binop},
    {Opcode::Mul, "mul", 3, true, OpFamily::Binop},
    {Opcode::Div, "div", 20, false, OpFamily::Binop},
    {Opcode::Rem, "rem", 20, false, OpFamily::Binop},
    {Opcode::And, "and", 1, true, OpFamily::Binop},
    {Opcode::Or, "or", 1, true, OpFamily::Binop},
    {Opcode::Xor, "xor", 1, true, OpFamily::Binop},
    {Opcode::Shl, "shl", 1, true, OpFamily::Binop},
    {Opcode::Shr, "shr", 1, true, OpFamily::Binop},
    {Opcode::Neg, "neg", 1, true, OpFamily::Unop},
    {Opcode::FAdd, "fadd", 2, true, OpFamily::Binop},
    {Opcode::FSub, "fsub", 2, true, OpFamily::Binop},
    {Opcode::FMul, "fmul", 4, true, OpFamily::Binop},
    {Opcode::FDiv, "fdiv", 20, true, OpFamily::Binop},
    {Opcode::FNeg, "fneg", 2, true, OpFamily::Unop},
    {Opcode::CmpEQ, "cmpeq", 1, true, OpFamily::Compare},
    {Opcode::CmpNE, "cmpne", 1, true, OpFamily::Compare},
    {Opcode::CmpLT, "cmplt", 1, true, OpFamily::Compare},
    {Opcode::CmpLE, "cmple", 1, true, OpFamily::Compare},
    {Opcode::CmpGT, "cmpgt", 1, true, OpFamily::Compare},
    {Opcode::CmpGE, "cmpge", 1, true, OpFamily::Compare},
    {Opcode::FCmpEQ, "fcmpeq", 1, true, OpFamily::Compare},
    {Opcode::FCmpLT, "fcmplt", 1, true, OpFamily::Compare},
    {Opcode::FCmpLE, "fcmple", 1, true, OpFamily::Compare},
    {Opcode::I2F, "i2f", 2, true, OpFamily::Unop},
    {Opcode::F2I, "f2i", 2, true, OpFamily::Unop},
    {Opcode::Br, "br", 1, false, OpFamily::Other},
    {Opcode::Cbnz, "cbnz", 1, false, OpFamily::Other},
    {Opcode::Cbz, "cbz", 1, false, OpFamily::Other},
    {Opcode::Ret, "ret", 2, false, OpFamily::Other},
    {Opcode::New, "new", 40, false, OpFamily::Other},
    {Opcode::NewArray, "newarray", 40, false, OpFamily::Other},
    {Opcode::ALoad, "aload", 2, false, OpFamily::Other},
    {Opcode::AStore, "astore", 2, false, OpFamily::Other},
    {Opcode::ALen, "alen", 1, false, OpFamily::Other},
    {Opcode::GetField, "getfield", 2, false, OpFamily::Other},
    {Opcode::PutField, "putfield", 2, false, OpFamily::Other},
    {Opcode::GetStatic, "getstatic", 2, true, OpFamily::Other},
    {Opcode::PutStatic, "putstatic", 2, false, OpFamily::Other},
    {Opcode::CallStatic, "callstatic", 0, false, OpFamily::Other},
    {Opcode::CallVirtual, "callvirtual", 0, false, OpFamily::Other},
    {Opcode::CallSpecial, "callspecial", 0, false, OpFamily::Other},
    {Opcode::CallInterface, "callinterface", 0, false, OpFamily::Other},
    {Opcode::InstanceOf, "instanceof", 4, true, OpFamily::Other},
    {Opcode::CheckCast, "checkcast", 4, false, OpFamily::Other},
    {Opcode::Print, "print", 10, false, OpFamily::Other},
};

struct TypedRow {
  Opcode Op;
  Type Result;
  Type Operand;
};

// Result and operand types of the typed families.
constexpr TypedRow Typed[] = {
    {Opcode::Add, Type::I64, Type::I64},
    {Opcode::Sub, Type::I64, Type::I64},
    {Opcode::Mul, Type::I64, Type::I64},
    {Opcode::Div, Type::I64, Type::I64},
    {Opcode::Rem, Type::I64, Type::I64},
    {Opcode::And, Type::I64, Type::I64},
    {Opcode::Or, Type::I64, Type::I64},
    {Opcode::Xor, Type::I64, Type::I64},
    {Opcode::Shl, Type::I64, Type::I64},
    {Opcode::Shr, Type::I64, Type::I64},
    {Opcode::Neg, Type::I64, Type::I64},
    {Opcode::FAdd, Type::F64, Type::F64},
    {Opcode::FSub, Type::F64, Type::F64},
    {Opcode::FMul, Type::F64, Type::F64},
    {Opcode::FDiv, Type::F64, Type::F64},
    {Opcode::FNeg, Type::F64, Type::F64},
    {Opcode::CmpEQ, Type::I64, Type::I64},
    {Opcode::CmpNE, Type::I64, Type::I64},
    {Opcode::CmpLT, Type::I64, Type::I64},
    {Opcode::CmpLE, Type::I64, Type::I64},
    {Opcode::CmpGT, Type::I64, Type::I64},
    {Opcode::CmpGE, Type::I64, Type::I64},
    {Opcode::FCmpEQ, Type::I64, Type::F64},
    {Opcode::FCmpLT, Type::I64, Type::F64},
    {Opcode::FCmpLE, Type::I64, Type::F64},
    {Opcode::I2F, Type::F64, Type::I64},
    {Opcode::F2I, Type::I64, Type::F64},
};

bool isTyped(Opcode Op) { return opcodeInfo(Op).Family != OpFamily::Other; }

/// One function applying Op to arguments of type ArgTy, returning its
/// result as RetTy.
IRFunction buildTyped(Opcode Op, Type ArgTy, Type RetTy) {
  FunctionBuilder B("f", RetTy);
  Reg A = B.addArg(ArgTy);
  Reg Bv = B.addArg(ArgTy);
  Reg R = isUnop(Op) ? B.unop(Op, A) : B.arith(Op, A, Bv);
  B.ret(R);
  return B.finalize();
}

TEST(OpcodeTable, PinsEveryOpcode) {
  ASSERT_EQ(std::size(Pinned), NumOpcodes);
  for (unsigned I = 0; I < NumOpcodes; ++I) {
    const PinnedRow &Row = Pinned[I];
    SCOPED_TRACE(Row.Mnemonic);
    EXPECT_EQ(static_cast<unsigned>(Row.Op), I); // rows in enum order
    EXPECT_STREQ(opcodeName(Row.Op), Row.Mnemonic);
    EXPECT_EQ(opcodeCycles(Row.Op), Row.Cycles);
    EXPECT_EQ(isRemovableWhenDead(Row.Op), Row.RemovableWhenDead);
    EXPECT_EQ(opcodeInfo(Row.Op).Family, Row.Family);
    EXPECT_EQ(isBinop(Row.Op), Row.Family == OpFamily::Binop ||
                                   Row.Family == OpFamily::Compare);
    EXPECT_EQ(isUnop(Row.Op), Row.Family == OpFamily::Unop);
  }
}

TEST(OpcodeTable, PinsTypedFamilies) {
  size_t NumTyped = 0;
  for (unsigned I = 0; I < NumOpcodes; ++I)
    NumTyped += isTyped(static_cast<Opcode>(I));
  ASSERT_EQ(std::size(Typed), NumTyped);
  for (const TypedRow &Row : Typed) {
    SCOPED_TRACE(opcodeName(Row.Op));
    EXPECT_EQ(opcodeInfo(Row.Op).Result, Row.Result);
    EXPECT_EQ(opcodeInfo(Row.Op).Operand, Row.Operand);
  }
}

TEST(OpcodeTable, MnemonicsRoundTrip) {
  for (unsigned I = 0; I < NumOpcodes; ++I) {
    Opcode Op = static_cast<Opcode>(I);
    EXPECT_EQ(opcodeFromMnemonic(opcodeName(Op)), Op);
  }
  EXPECT_EQ(opcodeFromMnemonic("nop"), std::nullopt);
  EXPECT_EQ(opcodeFromMnemonic("ADD"), std::nullopt);
}

TEST(OpcodeTable, AssemblerLooksUpEveryTypedMnemonic) {
  for (const TypedRow &Row : Typed) {
    const char *Mn = opcodeName(Row.Op);
    SCOPED_TRACE(Mn);
    std::string Ty = typeName(Row.Operand);
    std::string Use = isUnop(Row.Op) ? std::string(Mn) + " %a"
                                     : std::string(Mn) + " %a, %b";
    auto R = assembleProgram("class Main {\n  method f(%a: " + Ty + ", %b: " +
                             Ty + ") -> " + typeName(Row.Result) +
                             " static {\n    %r = " + Use +
                             "\n    ret %r\n  }\n}\n");
    ASSERT_TRUE(R.ok()) << R.Error;
    MethodId M = R.P->findMethod(R.P->findClass("Main"), "f");
    ASSERT_NE(M, NoMethodId);
    const IRFunction &F = R.P->method(M).Bytecode;
    ASSERT_EQ(F.Insts.size(), 2u);
    EXPECT_EQ(F.Insts[0].Op, Row.Op);
    EXPECT_EQ(F.Insts[0].Ty, Row.Result);
  }
}

TEST(OpcodeTable, BuilderResultTypeMatchesVerifier) {
  for (const TypedRow &Row : Typed) {
    SCOPED_TRACE(opcodeName(Row.Op));
    IRFunction F = buildTyped(Row.Op, Row.Operand, Row.Result);
    EXPECT_EQ(F.Insts[0].Ty, Row.Result);
    EXPECT_EQ(F.RegTypes[F.Insts[0].Dst], Row.Result);
    EXPECT_EQ(verifyFunction(F), "");
  }
}

TEST(OpcodeTable, VerifierRejectsWrongOperandTypes) {
  for (const TypedRow &Row : Typed) {
    SCOPED_TRACE(opcodeName(Row.Op));
    Type Wrong = Row.Operand == Type::I64 ? Type::F64 : Type::I64;
    std::string Want = std::string(" register, got ") + typeName(Wrong);
    Want = std::string("expected ") + typeName(Row.Operand) + Want;
    EXPECT_EQ(verifyFunction(buildTyped(Row.Op, Wrong, Row.Result)),
              "f: inst 0: a: " + Want);
    if (isUnop(Row.Op))
      continue;
    FunctionBuilder B("g", Row.Result);
    Reg A = B.addArg(Row.Operand);
    Reg Bv = B.addArg(Wrong);
    B.ret(B.arith(Row.Op, A, Bv));
    EXPECT_EQ(verifyFunction(B.finalize()), "g: inst 0: b: " + Want);
  }
}

} // namespace
