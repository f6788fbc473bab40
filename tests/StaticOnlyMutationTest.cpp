//===-- tests/StaticOnlyMutationTest.cpp - Static-only mutable classes --------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// The paper's static-only corner (sections 3.2.2-3.2.3): "For mutable
/// classes that are only dependent on static fields, no special TIB is
/// needed ... pointers to special compiled code are directly updated in the
/// class TIB", and "a private instance method can still be mutated if its
/// declaring class is solely dependent on static state fields. In this case,
/// the class TIB itself can be specialized."
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace dchm;

namespace {

/// A class whose behavior depends only on a static `mode` field, with a
/// public method, a *private* method (invoked via invokespecial), and a
/// static method, all branching on the mode.
struct StaticOnlyProgram {
  Program P;
  ClassId C = NoClassId;
  FieldId Mode = NoFieldId;
  MethodId Ctor = NoMethodId, Pub = NoMethodId, Priv = NoMethodId,
           CallPriv = NoMethodId, Stat = NoMethodId, SetMode = NoMethodId;
  MutationPlan Plan;

  StaticOnlyProgram() {
    C = P.defineClass("Svc");
    Mode = P.defineField(C, "mode", Type::I64, true, Access::Private);
    Ctor = P.defineMethod(C, "<init>", Type::Void, {}, {.IsCtor = true});
    {
      FunctionBuilder B("Svc.<init>", Type::Void);
      B.addArg(Type::Ref);
      B.retVoid();
      P.setBody(Ctor, B.finalize());
    }
    auto BranchyBody = [&](const char *Name, int64_t Base) {
      FunctionBuilder B(Name, Type::I64);
      B.addArg(Type::Ref);
      Reg M = B.getStatic(Mode, Type::I64);
      auto LFast = B.makeLabel();
      B.cbz(M, LFast);
      Reg Slow = B.constI(Base + 1);
      B.ret(Slow);
      B.bind(LFast);
      Reg Fast = B.constI(Base);
      B.ret(Fast);
      return B.finalize();
    };
    Pub = P.defineMethod(C, "pub", Type::I64, {});
    P.setBody(Pub, BranchyBody("Svc.pub", 10));
    Priv = P.defineMethod(C, "priv", Type::I64, {}, {.IsPrivate = true});
    P.setBody(Priv, BranchyBody("Svc.priv", 20));
    CallPriv = P.defineMethod(C, "callPriv", Type::I64, {});
    {
      FunctionBuilder B("Svc.callPriv", Type::I64);
      Reg This = B.addArg(Type::Ref);
      B.ret(B.callSpecial(Priv, {This}, Type::I64));
      P.setBody(CallPriv, B.finalize());
    }
    Stat = P.defineMethod(C, "stat", Type::I64, {}, {.IsStatic = true});
    {
      FunctionBuilder B("Svc.stat", Type::I64);
      Reg M = B.getStatic(Mode, Type::I64);
      auto LFast = B.makeLabel();
      B.cbz(M, LFast);
      Reg Slow = B.constI(31);
      B.ret(Slow);
      B.bind(LFast);
      Reg Fast = B.constI(30);
      B.ret(Fast);
      P.setBody(Stat, B.finalize());
    }
    SetMode = P.defineMethod(C, "setMode", Type::Void, {Type::I64},
                             {.IsStatic = true});
    {
      FunctionBuilder B("Svc.setMode", Type::Void);
      Reg M = B.addArg(Type::I64);
      B.putStatic(Mode, M);
      B.retVoid();
      P.setBody(SetMode, B.finalize());
    }
    P.link();

    MutableClassPlan CP;
    CP.Cls = C;
    CP.StaticStateFields = {Mode};
    HotState S0;
    S0.StaticVals = {valueI(0)};
    CP.HotStates = {S0};
    CP.MutableMethods = {Pub, Priv, Stat};
    Plan.Classes.push_back(CP);
  }

  Object *make(VirtualMachine &VM) {
    ClassInfo &CI = P.cls(C);
    Object *O = VM.heap().allocateInstance(CI, CI.ClassTib);
    VM.call(Ctor, {valueR(O)});
    return O;
  }

  void warm(VirtualMachine &VM, Object *O) {
    for (int I = 0; I < 6000; ++I) {
      VM.call(Pub, {valueR(O)});
      VM.call(CallPriv, {valueR(O)});
      VM.call(Stat, {});
    }
  }
};

struct StaticOnlyFixture : ::testing::Test, StaticOnlyProgram {};

TEST_F(StaticOnlyFixture, NoSpecialTibsAreCreated) {
  VirtualMachine VM(P, {});
  VM.setMutationPlan(&Plan);
  EXPECT_TRUE(P.cls(C).SpecialTibs.empty());
  EXPECT_EQ(P.specialTibBytes(), 0u);
}

TEST_F(StaticOnlyFixture, ClassTibItselfIsSpecialized) {
  VirtualMachine VM(P, {});
  VM.setMutationPlan(&Plan);
  Object *O = make(VM);
  warm(VM, O);
  const MethodInfo &M = P.method(Pub);
  ASSERT_FALSE(M.Specials.empty());
  // mode == 0 matches the hot state: the CLASS TIB holds special code.
  EXPECT_EQ(P.cls(C).ClassTib->Slots[M.VSlot], M.Specials[0]);
  // Objects keep the class TIB; no per-object state exists.
  EXPECT_EQ(O->tib(), P.cls(C).ClassTib);
  EXPECT_EQ(VM.call(Pub, {valueR(O)}).I, 10);
}

TEST_F(StaticOnlyFixture, PrivateMethodMutatesThroughClassTib) {
  // The paper's private-method case: invokespecial binds through the class
  // TIB, so a static-only class's private methods get specialized too.
  VirtualMachine VM(P, {});
  VM.setMutationPlan(&Plan);
  Object *O = make(VM);
  warm(VM, O);
  const MethodInfo &M = P.method(Priv);
  ASSERT_FALSE(M.Specials.empty());
  EXPECT_EQ(P.cls(C).ClassTib->Slots[M.VSlot], M.Specials[0]);
  EXPECT_EQ(VM.call(CallPriv, {valueR(O)}).I, 20);
  // The specialized private body is branch-free.
  EXPECT_LT(M.Specials[0]->code().Insts.size(),
            M.General->code().Insts.size());
}

TEST_F(StaticOnlyFixture, StaticMethodMutatesThroughJtoc) {
  VirtualMachine VM(P, {});
  VM.setMutationPlan(&Plan);
  Object *O = make(VM);
  warm(VM, O);
  EXPECT_TRUE(P.staticEntry(Stat)->isSpecialized());
  EXPECT_EQ(VM.call(Stat, {}).I, 30);
}

TEST_F(StaticOnlyFixture, StaticStoreFlipsAllThreePointerKinds) {
  VirtualMachine VM(P, {});
  VM.setMutationPlan(&Plan);
  Object *O = make(VM);
  warm(VM, O);
  const MethodInfo &MPub = P.method(Pub);
  const MethodInfo &MPriv = P.method(Priv);
  ASSERT_TRUE(P.staticEntry(Stat)->isSpecialized());

  // Leave the hot state through an interpreted PutStatic.
  VM.call(SetMode, {valueI(9)});
  EXPECT_EQ(P.cls(C).ClassTib->Slots[MPub.VSlot], MPub.General);
  EXPECT_EQ(P.cls(C).ClassTib->Slots[MPriv.VSlot], MPriv.General);
  EXPECT_FALSE(P.staticEntry(Stat)->isSpecialized());
  EXPECT_EQ(VM.call(Pub, {valueR(O)}).I, 11);
  EXPECT_EQ(VM.call(CallPriv, {valueR(O)}).I, 21);
  EXPECT_EQ(VM.call(Stat, {}).I, 31);

  // Re-enter the hot state: special code everywhere again.
  VM.call(SetMode, {valueI(0)});
  EXPECT_EQ(P.cls(C).ClassTib->Slots[MPub.VSlot], MPub.Specials[0]);
  EXPECT_EQ(P.cls(C).ClassTib->Slots[MPriv.VSlot], MPriv.Specials[0]);
  EXPECT_TRUE(P.staticEntry(Stat)->isSpecialized());
  EXPECT_EQ(VM.call(Pub, {valueR(O)}).I, 10);
  EXPECT_EQ(VM.call(CallPriv, {valueR(O)}).I, 20);
  EXPECT_EQ(VM.call(Stat, {}).I, 30);
}

TEST_F(StaticOnlyFixture, TransparencyAcrossModeFlips) {
  auto Run = [&](bool Mutation) {
    StaticOnlyProgram Fresh; // independent program instance
    VMOptions Opts;
    Opts.EnableMutation = Mutation;
    VirtualMachine VM(Fresh.P, Opts);
    VM.setMutationPlan(&Fresh.Plan);
    Object *O = Fresh.make(VM);
    int64_t Sum = 0;
    for (int I = 0; I < 3000; ++I) {
      if (I % 500 == 0)
        VM.call(Fresh.SetMode, {valueI((I / 500) % 2)});
      Sum += VM.call(Fresh.Pub, {valueR(O)}).I;
      Sum += VM.call(Fresh.CallPriv, {valueR(O)}).I;
      Sum += VM.call(Fresh.Stat, {}).I;
    }
    return Sum;
  };
  EXPECT_EQ(Run(false), Run(true));
}

// --- Conflict IMT slots dispatched through special TIBs ----------------------

TEST(ImtConflictMutation, ConflictStubRoutesThroughSpecialTib) {
  // A mutable class implementing two interfaces whose methods collide in
  // one IMT slot: the conflict stub resolves through the object's *current*
  // TIB, so mutated objects reach specialized code even on the conflict
  // path.
  Program P;
  ClassId I1 = P.defineInterface("I1");
  MethodId F1 = P.defineMethod(I1, "f1", Type::I64, {});
  ClassId I2 = P.defineInterface("I2");
  while ((P.numMethods() % NumImtSlots) != (F1 % NumImtSlots))
    P.defineMethod(I2, "pad" + std::to_string(P.numMethods()), Type::I64, {});
  MethodId F2 = P.defineMethod(I2, "f2", Type::I64, {});
  ASSERT_EQ(F1 % NumImtSlots, F2 % NumImtSlots);

  ClassId C = P.defineClass("Impl");
  P.addInterface(C, I1);
  P.addInterface(C, I2);
  FieldId Mode = P.defineField(C, "mode", Type::I64, false);
  MethodId Ctor = P.defineMethod(C, "<init>", Type::Void, {Type::I64},
                                 {.IsCtor = true});
  {
    FunctionBuilder B("Impl.<init>", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg M = B.addArg(Type::I64);
    B.putField(This, Mode, M);
    B.retVoid();
    P.setBody(Ctor, B.finalize());
  }
  // Implement every interface method (pads included) with mode-dependent
  // bodies for f1/f2 and constants for the pads.
  for (size_t MIdx = 0; MIdx < P.numMethods(); ++MIdx) {
    const MethodInfo &MI = P.method(static_cast<MethodId>(MIdx));
    if (!P.cls(MI.Owner).IsInterface)
      continue;
    MethodId Impl = P.defineMethod(C, MI.Name, MI.RetTy, MI.ParamTys);
    FunctionBuilder B("Impl." + MI.Name, Type::I64);
    Reg This = B.addArg(Type::Ref);
    if (MI.Id == F1 || MI.Id == F2) {
      Reg M = B.getField(This, Mode, Type::I64);
      auto LFast = B.makeLabel();
      B.cbz(M, LFast);
      Reg Slow = B.constI(MI.Id == F1 ? 101 : 201);
      B.ret(Slow);
      B.bind(LFast);
      Reg Fast = B.constI(MI.Id == F1 ? 100 : 200);
      B.ret(Fast);
    } else {
      B.ret(B.constI(0));
    }
    P.setBody(Impl, B.finalize());
  }
  MethodId Driver = P.defineMethod(C, "drive", Type::I64, {Type::Ref},
                                   {.IsStatic = true});
  {
    FunctionBuilder B("Impl.drive", Type::I64);
    Reg O = B.addArg(Type::Ref);
    Reg A = B.callInterface(F1, {O}, Type::I64);
    Reg Bv = B.callInterface(F2, {O}, Type::I64);
    B.ret(B.add(A, Bv));
    P.setBody(Driver, B.finalize());
  }
  P.link();

  MutationPlan Plan;
  MutableClassPlan CP;
  CP.Cls = C;
  CP.InstanceStateFields = {Mode};
  HotState S0;
  S0.InstanceVals = {valueI(0)};
  CP.HotStates = {S0};
  CP.MutableMethods = {P.findMethod(C, "f1"), P.findMethod(C, "f2")};
  Plan.Classes.push_back(CP);

  VirtualMachine VM(P, {});
  VM.setMutationPlan(&Plan);
  // The colliding IMT slot stays a conflict stub (only single-method slots
  // become TIB offsets), and conflict stubs already go through the TIB.
  const ImtEntry &E = P.cls(C).Imt->Slots[F1 % NumImtSlots];
  EXPECT_EQ(E.K, ImtEntry::Kind::Conflict);

  ClassInfo &CI = P.cls(C);
  Object *O = VM.heap().allocateInstance(CI, CI.ClassTib);
  VM.call(Ctor, {valueR(O), valueI(0)});
  ASSERT_TRUE(O->tib()->isSpecial());
  for (int I = 0; I < 6000; ++I)
    VM.call(Driver, {valueR(O)});
  // f1/f2 got specialized; dispatch through the conflict stub still lands
  // in the right (specialized) code and computes the hot-state values.
  EXPECT_FALSE(P.method(P.findMethod(C, "f1")).Specials.empty());
  EXPECT_EQ(VM.call(Driver, {valueR(O)}).I, 300); // 100 + 200
}

} // namespace
