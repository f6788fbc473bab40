//===-- tests/InterpreterTest.cpp - Interpreter semantics ---------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <pthread.h>

using namespace dchm;
using dchm::test::SingleFunctionProgram;

namespace {

/// Builds a two-argument i64 function applying one binary opcode.
int64_t evalOp(Opcode Op, int64_t X, int64_t Y) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg Bb = B.addArg(Type::I64);
  Reg R = B.arith(Op, A, Bb);
  B.ret(R);
  SingleFunctionProgram S = SingleFunctionProgram::create(B.finalize());
  return S.run({valueI(X), valueI(Y)}).I;
}

TEST(Interp, IntegerArithmetic) {
  EXPECT_EQ(evalOp(Opcode::Add, 40, 2), 42);
  EXPECT_EQ(evalOp(Opcode::Sub, 40, 2), 38);
  EXPECT_EQ(evalOp(Opcode::Mul, -6, 7), -42);
  EXPECT_EQ(evalOp(Opcode::Div, 43, 7), 6);
  EXPECT_EQ(evalOp(Opcode::Div, -43, 7), -6); // C-style truncation
  EXPECT_EQ(evalOp(Opcode::Rem, 43, 7), 1);
  EXPECT_EQ(evalOp(Opcode::Rem, -43, 7), -1);
  EXPECT_EQ(evalOp(Opcode::And, 0b1100, 0b1010), 0b1000);
  EXPECT_EQ(evalOp(Opcode::Or, 0b1100, 0b1010), 0b1110);
  EXPECT_EQ(evalOp(Opcode::Xor, 0b1100, 0b1010), 0b0110);
  EXPECT_EQ(evalOp(Opcode::Shl, 3, 4), 48);
  EXPECT_EQ(evalOp(Opcode::Shr, -16, 2), -4); // arithmetic shift
}

TEST(Interp, ShiftCountsAreMasked) {
  EXPECT_EQ(evalOp(Opcode::Shl, 1, 64), 1);
  EXPECT_EQ(evalOp(Opcode::Shl, 1, 65), 2);
}

TEST(Interp, IntegerOverflowWraps) {
  int64_t Max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(evalOp(Opcode::Add, Max, 1), std::numeric_limits<int64_t>::min());
}

TEST(Interp, Comparisons) {
  EXPECT_EQ(evalOp(Opcode::CmpLT, 1, 2), 1);
  EXPECT_EQ(evalOp(Opcode::CmpLT, 2, 1), 0);
  EXPECT_EQ(evalOp(Opcode::CmpLE, 2, 2), 1);
  EXPECT_EQ(evalOp(Opcode::CmpEQ, 5, 5), 1);
  EXPECT_EQ(evalOp(Opcode::CmpNE, 5, 5), 0);
  EXPECT_EQ(evalOp(Opcode::CmpGT, 3, 2), 1);
  EXPECT_EQ(evalOp(Opcode::CmpGE, 2, 3), 0);
}

TEST(Interp, FloatArithmeticAndConversion) {
  FunctionBuilder B("f", Type::F64);
  Reg A = B.addArg(Type::I64);
  Reg F = B.i2f(A);
  Reg H = B.constF(0.5);
  Reg R = B.fmul(F, H);
  B.ret(R);
  SingleFunctionProgram S = SingleFunctionProgram::create(B.finalize());
  EXPECT_DOUBLE_EQ(S.run({valueI(5)}).F, 2.5);
}

TEST(Interp, F2ITruncates) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::F64);
  B.ret(B.f2i(A));
  SingleFunctionProgram S = SingleFunctionProgram::create(B.finalize());
  EXPECT_EQ(S.run({valueF(2.9)}).I, 2);
  EXPECT_EQ(S.run({valueF(-2.9)}).I, -2);
}

TEST(Interp, LoopComputesSum) {
  // sum of 0..n-1
  FunctionBuilder B("f", Type::I64);
  Reg N = B.addArg(Type::I64);
  Reg I = B.newReg(Type::I64);
  Reg Sum = B.newReg(Type::I64);
  Reg Zero = B.constI(0);
  Reg One = B.constI(1);
  B.move(I, Zero);
  B.move(Sum, Zero);
  auto LHead = B.makeLabel();
  auto LDone = B.makeLabel();
  B.bind(LHead);
  B.cbz(B.cmp(Opcode::CmpLT, I, N), LDone);
  B.move(Sum, B.add(Sum, I));
  B.move(I, B.add(I, One));
  B.br(LHead);
  B.bind(LDone);
  B.ret(Sum);
  SingleFunctionProgram S = SingleFunctionProgram::create(B.finalize());
  EXPECT_EQ(S.run({valueI(10)}).I, 45);
  EXPECT_EQ(S.run({valueI(0)}).I, 0);
}

TEST(Interp, ArraysRoundTrip) {
  FunctionBuilder B("f", Type::I64);
  Reg N = B.addArg(Type::I64);
  Reg Arr = B.newArray(Type::I64, N);
  Reg Two = B.constI(2);
  Reg V = B.constI(99);
  B.astore(Type::I64, Arr, Two, V);
  Reg L = B.alen(Arr);
  Reg X = B.aload(Type::I64, Arr, Two);
  B.ret(B.add(L, X));
  SingleFunctionProgram S = SingleFunctionProgram::create(B.finalize());
  EXPECT_EQ(S.run({valueI(5)}).I, 104);
}

TEST(Interp, PrintProducesOutputAndHash) {
  FunctionBuilder B("f", Type::Void);
  Reg V = B.constI(1234);
  B.printNum(V, Type::I64);
  Reg Ch = B.constI('!');
  B.printChar(Ch);
  B.retVoid();
  SingleFunctionProgram S = SingleFunctionProgram::create(B.finalize());
  VirtualMachine VM(*S.P, {});
  VM.call(S.Main, {});
  EXPECT_EQ(VM.interp().output(), "1234!");
  uint64_t H1 = VM.interp().outputHash();
  VM.call(S.Main, {});
  EXPECT_NE(VM.interp().outputHash(), H1); // hash is cumulative
}

TEST(Interp, StatsCountInstructionsAndCycles) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg S = B.add(A, A);
  B.ret(S);
  SingleFunctionProgram SP = SingleFunctionProgram::create(B.finalize());
  VirtualMachine VM(*SP.P, {});
  VM.call(SP.Main, {valueI(1)});
  EXPECT_EQ(VM.interp().stats().Invocations, 1u);
  EXPECT_GE(VM.interp().stats().Insts, 2u);
  EXPECT_GT(VM.interp().stats().Cycles, 0u);
}

TEST(Interp, RecursionWorks) {
  // fib via recursion exercises the frame stack.
  Program P;
  ClassId C = P.defineClass("C");
  MethodId Fib = P.defineMethod(C, "fib", Type::I64, {Type::I64},
                                {.IsStatic = true});
  {
    FunctionBuilder B("C.fib", Type::I64);
    Reg N = B.addArg(Type::I64);
    auto LRec = B.makeLabel();
    Reg Two = B.constI(2);
    B.cbnz(B.cmp(Opcode::CmpGE, N, Two), LRec);
    B.ret(N);
    B.bind(LRec);
    Reg One = B.constI(1);
    Reg A = B.callStatic(Fib, {B.sub(N, One)}, Type::I64);
    Reg Bb = B.callStatic(Fib, {B.sub(N, Two)}, Type::I64);
    B.ret(B.add(A, Bb));
    P.setBody(Fib, B.finalize());
  }
  P.link();
  VirtualMachine VM(P, {});
  EXPECT_EQ(VM.call(Fib, {valueI(10)}).I, 55);
}

TEST(Interp, InstanceOfUsesTypeInfoNotTibIdentity) {
  // Build a mutable class, a driver method computing a bit mask of
  // instanceOf results, and check that a *mutated* object (whose TIB is a
  // special TIB, not the class TIB) still type-tests as its class.
  Program P;
  ClassId Iface = P.defineInterface("I");
  MethodId IfM = P.defineMethod(Iface, "m", Type::Void, {});
  ClassId A = P.defineClass("A");
  P.addInterface(A, Iface);
  FieldId Mode = P.defineField(A, "mode", Type::I64, false);
  MethodId Am = P.defineMethod(A, "m", Type::Void, {});
  {
    FunctionBuilder B("A.m", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg M = B.getField(This, Mode, Type::I64);
    auto L = B.makeLabel();
    B.cbz(M, L);
    B.bind(L);
    B.retVoid();
    P.setBody(Am, B.finalize());
  }
  ClassId Sub = P.defineClass("Sub", A);
  MethodId Isa = P.defineMethod(A, "isa", Type::I64, {Type::Ref},
                                {.IsStatic = true});
  {
    FunctionBuilder B("A.isa", Type::I64);
    Reg O = B.addArg(Type::Ref);
    Reg R1 = B.instanceOf(O, A);
    Reg R2 = B.instanceOf(O, Iface);
    Reg R3 = B.instanceOf(O, Sub);
    Reg Two = B.constI(2);
    Reg Four = B.constI(4);
    B.ret(B.add(R1, B.add(B.mul(R2, Two), B.mul(R3, Four))));
    P.setBody(Isa, B.finalize());
  }
  P.link();
  (void)IfM;

  MutationPlan Plan;
  MutableClassPlan CP;
  CP.Cls = A;
  CP.InstanceStateFields = {Mode};
  HotState S0;
  S0.InstanceVals = {valueI(0)};
  CP.HotStates = {S0};
  CP.MutableMethods = {Am};
  Plan.Classes.push_back(CP);

  VirtualMachine VM(P, {});
  VM.setMutationPlan(&Plan);
  ClassInfo &CA = P.cls(A);
  Object *O = VM.heap().allocateInstance(CA, CA.ClassTib);
  // Store mode = 0 through a state-field write: the object mutates.
  FieldInfo &ModeF = P.field(Mode);
  O->set(ModeF.Slot, valueI(0));
  VM.mutation().onInstanceStateStore(O, ModeF);
  ASSERT_TRUE(O->tib()->isSpecial());
  // instanceOf A: yes; instanceOf I: yes; instanceOf Sub: no => 1+2+0 = 3.
  EXPECT_EQ(VM.call(Isa, {valueR(O)}).I, 3);
}

TEST(InterpDeath, NullFieldAccessTraps) {
  FunctionBuilder B("f", Type::I64);
  Reg O = B.constNull();
  Reg V = B.getField(O, 0, Type::I64);
  B.ret(V);
  IRFunction F = B.finalize();
  // FieldId 0 must exist; build a program with one instance field.
  Program P;
  ClassId C = P.defineClass("C");
  P.defineField(C, "x", Type::I64, false);
  MethodId M = P.defineMethod(C, "m", Type::I64, {}, {.IsStatic = true});
  P.setBody(M, std::move(F));
  P.link();
  VirtualMachine VM(P, {});
  EXPECT_DEATH(VM.call(M, {}), "null pointer");
}

TEST(InterpDeath, ArrayBoundsTrap) {
  FunctionBuilder B("f", Type::I64);
  Reg N = B.constI(4);
  Reg Arr = B.newArray(Type::I64, N);
  Reg Nine = B.constI(9);
  B.ret(B.aload(Type::I64, Arr, Nine));
  SingleFunctionProgram S = SingleFunctionProgram::create(B.finalize());
  VirtualMachine VM(*S.P, {});
  EXPECT_DEATH(VM.call(S.Main, {}), "out of bounds");
}

TEST(InterpDeath, DivisionByZeroTraps) {
  FunctionBuilder B("f", Type::I64);
  Reg A = B.addArg(Type::I64);
  Reg Z = B.constI(0);
  B.ret(B.div(A, Z));
  SingleFunctionProgram S = SingleFunctionProgram::create(B.finalize());
  VirtualMachine VM(*S.P, {});
  EXPECT_DEATH(VM.call(S.Main, {valueI(1)}), "division by zero");
}

TEST(InterpDeath, StackOverflowTraps) {
  Program P;
  ClassId C = P.defineClass("C");
  MethodId M = P.defineMethod(C, "inf", Type::Void, {}, {.IsStatic = true});
  FunctionBuilder B("C.inf", Type::Void);
  B.callStatic(M, {}, Type::Void);
  B.retVoid();
  P.setBody(M, B.finalize());
  P.link();
  VirtualMachine VM(P, {});
  // The trap is diagnosable: it names the method being invoked and the
  // frame depth at which the MaxFrames limit was hit.
  EXPECT_DEATH(VM.call(M, {}),
               "VM stack overflow invoking 'C\\.inf': frame depth 512 "
               "reached the MaxFrames limit \\(512\\)");
}

TEST(Interp, DeepRecursionNearFrameLimitSucceeds) {
  // sum(n) = n + sum(n - 1); depth 500 sits just under MaxFrames (512) and
  // forces the register arena through several geometric growths (each frame
  // re-derives its register window after the nested call returns).
  Program P;
  ClassId C = P.defineClass("C");
  MethodId M = P.defineMethod(C, "sum", Type::I64, {Type::I64},
                              {.IsStatic = true});
  FunctionBuilder B("C.sum", Type::I64);
  Reg N = B.addArg(Type::I64);
  auto Rec = B.makeLabel();
  B.cbnz(N, Rec);
  B.ret(B.constI(0));
  B.bind(Rec);
  Reg One = B.constI(1);
  Reg Rest = B.callStatic(M, {B.sub(N, One)}, Type::I64);
  B.ret(B.add(N, Rest));
  P.setBody(M, B.finalize());
  P.link();
  VirtualMachine VM(P, {});
  EXPECT_EQ(VM.call(M, {valueI(500)}).I, 500 * 501 / 2);
}

TEST(InterpDeath, GuestRecursionTakesNoHostStack) {
  // A guest call pushes a frame and keeps dispatching in the same loop, so
  // the 500-deep sum(n) = n + sum(n - 1) runs on a 128 KiB host thread,
  // which cannot hold 500 nested host activations of the loop.
  Program P;
  ClassId C = P.defineClass("C");
  MethodId M = P.defineMethod(C, "sum", Type::I64, {Type::I64},
                              {.IsStatic = true});
  FunctionBuilder B("C.sum", Type::I64);
  Reg N = B.addArg(Type::I64);
  auto Rec = B.makeLabel();
  B.cbnz(N, Rec);
  B.ret(B.constI(0));
  B.bind(Rec);
  Reg Rest = B.callStatic(M, {B.sub(N, B.constI(1))}, Type::I64);
  B.ret(B.add(N, Rest));
  P.setBody(M, B.finalize());
  P.link();
  VirtualMachine VM(P, {});
  struct Call {
    VirtualMachine *VM;
    MethodId M;
    int64_t Result;
  } Work{&VM, M, 0};
  auto RunOnSmallStack = [&Work] {
    pthread_attr_t Attr;
    pthread_attr_init(&Attr);
    pthread_attr_setstacksize(&Attr, 128 * 1024);
    pthread_t T;
    auto Body = [](void *Arg) -> void * {
      auto *W = static_cast<Call *>(Arg);
      W->Result = W->VM->call(W->M, {valueI(500)}).I;
      return nullptr;
    };
    if (pthread_create(&T, &Attr, Body, &Work) != 0 ||
        pthread_join(T, nullptr) != 0)
      std::exit(2);
    std::exit(Work.Result == 500 * 501 / 2 ? 0 : 1);
  };
  // A host stack overflow kills the child with a signal.
  EXPECT_EXIT(RunOnSmallStack(), testing::ExitedWithCode(0), "");
}

} // namespace
