//===-- tests/TestUtil.h - Shared test fixtures ---------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for building small programs in tests: a SalaryDB-like mutable
/// class ("Counter" with a mode state field), and utilities to run IR
/// functions standalone through a VM.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_TESTS_TESTUTIL_H
#define DCHM_TESTS_TESTUTIL_H

#include "core/VM.h"
#include "ir/Builder.h"
#include "mutation/MutationPlan.h"
#include "runtime/Program.h"

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
    P = std::make_unique<Program>();
    Iface = P->defineInterface("Bumpable");
    IfaceBump = P->defineMethod(Iface, "bump", Type::Void, {});

    Counter = P->defineClass("Counter");
    P->addInterface(Counter, Iface);
    Mode = P->defineField(Counter, "mode", Type::I64, false, Access::Private);
    Total = P->defineField(Counter, "total", Type::I64, false);
    GlobalMode =
        P->defineField(Counter, "globalMode", Type::I64, true, Access::Private);

    CounterCtor = P->defineMethod(Counter, "<init>", Type::Void, {Type::I64},
                                  {.IsCtor = true});
    {
      FunctionBuilder B("Counter.<init>", Type::Void);
      Reg This = B.addArg(Type::Ref);
      Reg M = B.addArg(Type::I64);
      B.putField(This, Mode, M);
      Reg Zero = B.constI(0);
      B.putField(This, Total, Zero);
      B.retVoid();
      P->setBody(CounterCtor, B.finalize());
    }

    Bump = P->defineMethod(Counter, "bump", Type::Void, {});
    {
      FunctionBuilder B("Counter.bump", Type::Void);
      Reg This = B.addArg(Type::Ref);
      Reg M = B.getField(This, Mode, Type::I64);
      Reg T = B.getField(This, Total, Type::I64);
      auto L1 = B.makeLabel();
      auto L2 = B.makeLabel();
      auto LEnd = B.makeLabel();
      Reg Zero = B.constI(0);
      B.cbnz(B.cmp(Opcode::CmpNE, M, Zero), L1);
      Reg One = B.constI(1);
      B.putField(This, Total, B.add(T, One));
      B.br(LEnd);
      B.bind(L1);
      Reg C1 = B.constI(1);
      B.cbnz(B.cmp(Opcode::CmpNE, M, C1), L2);
      Reg Ten = B.constI(10);
      B.putField(This, Total, B.add(T, Ten));
      B.br(LEnd);
      B.bind(L2);
      Reg Hundred = B.constI(100);
      B.putField(This, Total, B.add(T, Hundred));
      B.br(LEnd);
      B.bind(LEnd);
      B.retVoid();
      P->setBody(Bump, B.finalize());
    }

    Get = P->defineMethod(Counter, "get", Type::I64, {});
    {
      FunctionBuilder B("Counter.get", Type::I64);
      Reg This = B.addArg(Type::Ref);
      B.ret(B.getField(This, Total, Type::I64));
      P->setBody(Get, B.finalize());
    }

    SetMode = P->defineMethod(Counter, "setMode", Type::Void, {Type::I64});
    {
      FunctionBuilder B("Counter.setMode", Type::Void);
      Reg This = B.addArg(Type::Ref);
      Reg M = B.addArg(Type::I64);
      B.putField(This, Mode, M);
      B.retVoid();
      P->setBody(SetMode, B.finalize());
    }

    // StaticScale: a static method reading only the static state field
    // (JTOC mutation path): returns globalMode * 7.
    StaticScale = P->defineMethod(Counter, "staticScale", Type::I64, {},
                                  {.IsStatic = true});
    {
      FunctionBuilder B("Counter.staticScale", Type::I64);
      Reg G = B.getStatic(GlobalMode, Type::I64);
      Reg Seven = B.constI(7);
      B.ret(B.mul(G, Seven));
      P->setBody(StaticScale, B.finalize());
    }

    SubCounter = P->defineClass("SubCounter", Counter);
    MethodId SubCtor = P->defineMethod(SubCounter, "<init>", Type::Void,
                                       {Type::I64}, {.IsCtor = true});
    {
      FunctionBuilder B("SubCounter.<init>", Type::Void);
      Reg This = B.addArg(Type::Ref);
      Reg M = B.addArg(Type::I64);
      B.callSpecial(CounterCtor, {This, M}, Type::Void);
      B.retVoid();
      P->setBody(SubCtor, B.finalize());
    }
    // SubCounter overrides get() (but not bump()).
    SubBump = P->defineMethod(SubCounter, "get", Type::I64, {});
    {
      FunctionBuilder B("SubCounter.get", Type::I64);
      Reg This = B.addArg(Type::Ref);
      Reg T = B.getField(This, Total, Type::I64);
      Reg Neg = B.neg(T);
      B.ret(Neg);
      P->setBody(SubBump, B.finalize());
    }

    Driver = P->defineClass("TestDriver");

    // driveBump(o, n): n virtual bump() calls from one loop — a single
    // CallVirtual site that keeps re-reading the receiver's current TIB.
    DriveBump = P->defineMethod(Driver, "driveBump", Type::Void,
                                {Type::Ref, Type::I64}, {.IsStatic = true});
    {
      FunctionBuilder B("TestDriver.driveBump", Type::Void);
      Reg O = B.addArg(Type::Ref);
      Reg N = B.addArg(Type::I64);
      Reg I = B.newReg(Type::I64);
      B.move(I, B.constI(0));
      Reg One = B.constI(1);
      auto Head = B.makeLabel();
      auto Exit = B.makeLabel();
      B.bind(Head);
      B.cbz(B.cmp(Opcode::CmpLT, I, N), Exit);
      B.callVirtual(Bump, {O}, Type::Void);
      B.move(I, B.add(I, One));
      B.br(Head);
      B.bind(Exit);
      B.retVoid();
      P->setBody(DriveBump, B.finalize());
    }

    // driveIface(o, n): same loop through the interface (IMT dispatch).
    DriveIface = P->defineMethod(Driver, "driveIface", Type::Void,
                                 {Type::Ref, Type::I64}, {.IsStatic = true});
    {
      FunctionBuilder B("TestDriver.driveIface", Type::Void);
      Reg O = B.addArg(Type::Ref);
      Reg N = B.addArg(Type::I64);
      Reg I = B.newReg(Type::I64);
      B.move(I, B.constI(0));
      Reg One = B.constI(1);
      auto Head = B.makeLabel();
      auto Exit = B.makeLabel();
      B.bind(Head);
      B.cbz(B.cmp(Opcode::CmpLT, I, N), Exit);
      B.callInterface(IfaceBump, {O}, Type::Void);
      B.move(I, B.add(I, One));
      B.br(Head);
      B.bind(Exit);
      B.retVoid();
      P->setBody(DriveIface, B.finalize());
    }

    // driveStatic(n): accumulates n staticScale() results through one
    // CallStatic site (JTOC dispatch).
    DriveStatic = P->defineMethod(Driver, "driveStatic", Type::I64,
                                  {Type::I64}, {.IsStatic = true});
    {
      FunctionBuilder B("TestDriver.driveStatic", Type::I64);
      Reg N = B.addArg(Type::I64);
      Reg Acc = B.newReg(Type::I64);
      B.move(Acc, B.constI(0));
      Reg I = B.newReg(Type::I64);
      B.move(I, B.constI(0));
      Reg One = B.constI(1);
      auto Head = B.makeLabel();
      auto Exit = B.makeLabel();
      B.bind(Head);
      B.cbz(B.cmp(Opcode::CmpLT, I, N), Exit);
      B.move(Acc, B.add(Acc, B.callStatic(StaticScale, {}, Type::I64)));
      B.move(I, B.add(I, One));
      B.br(Head);
      B.bind(Exit);
      B.ret(Acc);
      P->setBody(DriveStatic, B.finalize());
    }

    // report(o): prints get(o), feeding the output hash (the semantic
    // equivalence witness for mutation-on vs mutation-off runs).
    Report = P->defineMethod(Driver, "report", Type::Void, {Type::Ref},
                             {.IsStatic = true});
    {
      FunctionBuilder B("TestDriver.report", Type::Void);
      Reg O = B.addArg(Type::Ref);
      B.printNum(B.callVirtual(Get, {O}, Type::I64), Type::I64);
      B.retVoid();
      P->setBody(Report, B.finalize());
    }
    P->link();

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
