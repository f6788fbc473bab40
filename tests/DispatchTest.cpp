//===-- tests/DispatchTest.cpp - TIB/JTOC/IMT dispatch paths ------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace dchm;

namespace {

/// A/B hierarchy with an interface; the driver calls through all four
/// invoke flavors.
struct DispatchFixture : ::testing::Test {
  Program P;
  ClassId Iface = NoClassId, A = NoClassId, B = NoClassId;
  MethodId IfaceTag = NoMethodId, ATag = NoMethodId, BTag = NoMethodId;
  MethodId ACtor = NoMethodId, BCtor = NoMethodId;
  MethodId StaticTag = NoMethodId, PrivTag = NoMethodId, CallPriv = NoMethodId;
  MethodId DrvVirtual = NoMethodId, DrvIface = NoMethodId,
           DrvSuper = NoMethodId;

  DispatchFixture() {
    Iface = P.defineInterface("Tagged");
    IfaceTag = P.defineMethod(Iface, "tag", Type::I64, {});

    A = P.defineClass("A");
    P.addInterface(A, Iface);
    ACtor = P.defineMethod(A, "<init>", Type::Void, {}, {.IsCtor = true});
    {
      FunctionBuilder F("A.<init>", Type::Void);
      F.addArg(Type::Ref);
      F.retVoid();
      P.setBody(ACtor, F.finalize());
    }
    ATag = P.defineMethod(A, "tag", Type::I64, {});
    {
      FunctionBuilder F("A.tag", Type::I64);
      F.addArg(Type::Ref);
      F.ret(F.constI(1));
      P.setBody(ATag, F.finalize());
    }
    StaticTag = P.defineMethod(A, "staticTag", Type::I64, {},
                               {.IsStatic = true});
    {
      FunctionBuilder F("A.staticTag", Type::I64);
      F.ret(F.constI(77));
      P.setBody(StaticTag, F.finalize());
    }
    PrivTag = P.defineMethod(A, "privTag", Type::I64, {}, {.IsPrivate = true});
    {
      FunctionBuilder F("A.privTag", Type::I64);
      F.addArg(Type::Ref);
      F.ret(F.constI(13));
      P.setBody(PrivTag, F.finalize());
    }
    CallPriv = P.defineMethod(A, "callPriv", Type::I64, {});
    {
      FunctionBuilder F("A.callPriv", Type::I64);
      Reg This = F.addArg(Type::Ref);
      Reg V = F.callSpecial(PrivTag, {This}, Type::I64);
      F.ret(V);
      P.setBody(CallPriv, F.finalize());
    }

    B = P.defineClass("B", A);
    BCtor = P.defineMethod(B, "<init>", Type::Void, {}, {.IsCtor = true});
    {
      FunctionBuilder F("B.<init>", Type::Void);
      Reg This = F.addArg(Type::Ref);
      F.callSpecial(ACtor, {This}, Type::Void);
      F.retVoid();
      P.setBody(BCtor, F.finalize());
    }
    BTag = P.defineMethod(B, "tag", Type::I64, {});
    {
      FunctionBuilder F("B.tag", Type::I64);
      F.addArg(Type::Ref);
      F.ret(F.constI(2));
      P.setBody(BTag, F.finalize());
    }
    // B.superTag() invokes A.tag via invokespecial (a `super.tag()` call).
    DrvSuper = P.defineMethod(B, "superTag", Type::I64, {});
    {
      FunctionBuilder F("B.superTag", Type::I64);
      Reg This = F.addArg(Type::Ref);
      Reg V = F.callSpecial(ATag, {This}, Type::I64);
      F.ret(V);
      P.setBody(DrvSuper, F.finalize());
    }

    ClassId Drv = P.defineClass("Drv");
    DrvVirtual = P.defineMethod(Drv, "viaVirtual", Type::I64, {Type::Ref},
                                {.IsStatic = true});
    {
      FunctionBuilder F("Drv.viaVirtual", Type::I64);
      Reg O = F.addArg(Type::Ref);
      F.ret(F.callVirtual(ATag, {O}, Type::I64));
      P.setBody(DrvVirtual, F.finalize());
    }
    DrvIface = P.defineMethod(Drv, "viaInterface", Type::I64, {Type::Ref},
                              {.IsStatic = true});
    {
      FunctionBuilder F("Drv.viaInterface", Type::I64);
      Reg O = F.addArg(Type::Ref);
      F.ret(F.callInterface(IfaceTag, {O}, Type::I64));
      P.setBody(DrvIface, F.finalize());
    }
    P.link();
  }

  Object *make(VirtualMachine &VM, ClassId C, MethodId Ctor) {
    ClassInfo &CI = P.cls(C);
    Object *O = VM.heap().allocateInstance(CI, CI.ClassTib);
    VM.call(Ctor, {valueR(O)});
    return O;
  }
};

TEST_F(DispatchFixture, VirtualDispatchSelectsDynamicType) {
  VirtualMachine VM(P, {});
  Object *OA = make(VM, A, ACtor);
  Object *OB = make(VM, B, BCtor);
  EXPECT_EQ(VM.call(DrvVirtual, {valueR(OA)}).I, 1);
  EXPECT_EQ(VM.call(DrvVirtual, {valueR(OB)}).I, 2);
}

TEST_F(DispatchFixture, InterfaceDispatchSelectsDynamicType) {
  VirtualMachine VM(P, {});
  Object *OA = make(VM, A, ACtor);
  Object *OB = make(VM, B, BCtor);
  EXPECT_EQ(VM.call(DrvIface, {valueR(OA)}).I, 1);
  EXPECT_EQ(VM.call(DrvIface, {valueR(OB)}).I, 2);
  EXPECT_GE(VM.interp().stats().InterfaceCalls, 2u);
}

TEST_F(DispatchFixture, InvokespecialIgnoresDynamicType) {
  VirtualMachine VM(P, {});
  Object *OB = make(VM, B, BCtor);
  // B.superTag() must reach A.tag even though OB's dynamic type overrides
  // tag: invokespecial binds through the declaring class TIB.
  EXPECT_EQ(VM.call(DrvSuper, {valueR(OB)}).I, 1);
}

TEST_F(DispatchFixture, PrivateMethodViaInvokespecial) {
  VirtualMachine VM(P, {});
  Object *OA = make(VM, A, ACtor);
  EXPECT_EQ(VM.call(CallPriv, {valueR(OA)}).I, 13);
}

TEST_F(DispatchFixture, StaticDispatchThroughJtoc) {
  VirtualMachine VM(P, {});
  EXPECT_EQ(VM.call(StaticTag, {}).I, 77);
  EXPECT_NE(P.staticEntry(StaticTag), nullptr); // JTOC entry installed
}

TEST_F(DispatchFixture, LazyCompilationInstallsOnFirstUse) {
  VirtualMachine VM(P, {});
  const ClassInfo &CA = P.cls(A);
  uint32_t Slot = P.method(ATag).VSlot;
  EXPECT_EQ(CA.ClassTib->Slots[Slot], nullptr);
  Object *OA = make(VM, A, ACtor);
  VM.call(DrvVirtual, {valueR(OA)});
  ASSERT_NE(CA.ClassTib->Slots[Slot], nullptr);
  EXPECT_EQ(CA.ClassTib->Slots[Slot]->optLevel(), 0); // opt0 initial compile
}

TEST_F(DispatchFixture, InstallPropagatesToNonOverridingSubclass) {
  VirtualMachine VM(P, {});
  Object *OA = make(VM, A, ACtor);
  VM.call(CallPriv, {valueR(OA)}); // compiles callPriv (declared on A only)
  uint32_t Slot = P.method(CallPriv).VSlot;
  // B does not override callPriv, so its TIB must have received A's code.
  EXPECT_EQ(P.cls(B).ClassTib->Slots[Slot], P.cls(A).ClassTib->Slots[Slot]);
  EXPECT_NE(P.cls(B).ClassTib->Slots[Slot], nullptr);
}

TEST_F(DispatchFixture, InstallDoesNotClobberOverride) {
  VirtualMachine VM(P, {});
  Object *OA = make(VM, A, ACtor);
  Object *OB = make(VM, B, BCtor);
  VM.call(DrvVirtual, {valueR(OA)}); // compiles A.tag
  uint32_t Slot = P.method(ATag).VSlot;
  // B overrides tag: its TIB slot must NOT hold A.tag's code.
  EXPECT_NE(P.cls(B).ClassTib->Slots[Slot], P.cls(A).ClassTib->Slots[Slot]);
  EXPECT_EQ(VM.call(DrvVirtual, {valueR(OB)}).I, 2);
}

TEST_F(DispatchFixture, RecompilationReplacesCode) {
  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 10;
  Opts.Adaptive.Opt2Threshold = 50;
  VirtualMachine VM(P, Opts);
  Object *OA = make(VM, A, ACtor);
  for (int I = 0; I < 200; ++I)
    VM.call(DrvVirtual, {valueR(OA)});
  const MethodInfo &M = P.method(ATag);
  EXPECT_EQ(M.CurOptLevel, 2);
  EXPECT_GE(M.CompiledVersions.size(), 3u); // opt0, opt1, opt2
  EXPECT_TRUE(M.CompiledVersions[0]->isInvalidated());
  EXPECT_EQ(M.General, P.cls(A).ClassTib->Slots[M.VSlot]);
  // Results stay correct across recompilation.
  EXPECT_EQ(VM.call(DrvVirtual, {valueR(OA)}).I, 1);
}

// --- Dispatch-structure epoch and dispatch modes (docs/dispatch.md) ---------

TEST_F(DispatchFixture, RecompilationBumpsEpochAndInvalidatesCaches) {
  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 10;
  Opts.Adaptive.Opt2Threshold = 50;
  VirtualMachine VM(P, Opts);
  Object *OA = make(VM, A, ACtor);
  uint64_t Epoch0 = P.codeEpoch();
  for (int I = 0; I < 200; ++I)
    ASSERT_EQ(VM.call(DrvVirtual, {valueR(OA)}).I, 1);
  // Promotions patched TIB slots, so every dispatch-structure write moved
  // the code epoch; every replaced version is invalidated and the next call
  // resolves straight to the newest general code through the TIB.
  const MethodInfo &M = P.method(ATag);
  EXPECT_EQ(M.CurOptLevel, 2);
  EXPECT_GT(P.codeEpoch(), Epoch0);
  for (const auto &CM : M.CompiledVersions)
    EXPECT_EQ(CM->isInvalidated(), CM.get() != M.General);
  EXPECT_EQ(P.cls(A).ClassTib->Slots[M.VSlot], M.General);
  EXPECT_EQ(VM.call(DrvVirtual, {valueR(OA)}).I, 1);
}

TEST_F(DispatchFixture, DispatchConfigsAgreeOnResultsAndSimulatedCost) {
  // The dispatch mode must never change results or simulated accounting
  // (the acceptance bar of the dispatch overhaul). Freeze promotion so both
  // VMs execute the same opt0 code over the shared Program.
  uint64_t BaseInsts = 0, BaseCycles = 0;
  int64_t BaseSum = 0;
  for (DispatchMode DM : {DispatchMode::Switch, DispatchMode::Threaded}) {
    VMOptions Opts;
    Opts.Adaptive.Opt1Threshold = 1u << 30;
    Opts.Dispatch = DM;
    VirtualMachine VM(P, Opts);
    Object *OA = make(VM, A, ACtor);
    Object *OB = make(VM, B, BCtor);
    int64_t Sum = 0;
    for (int I = 0; I < 40; ++I) {
      Sum += VM.call(DrvVirtual, {valueR(OA)}).I;
      Sum += VM.call(DrvVirtual, {valueR(OB)}).I;
      Sum += VM.call(DrvIface, {valueR(I % 2 ? OA : OB)}).I;
      Sum += VM.call(DrvSuper, {valueR(OB)}).I;
      Sum += VM.call(StaticTag, {}).I;
      Sum += VM.call(CallPriv, {valueR(OA)}).I;
    }
    const ExecStats &S = VM.interp().stats();
    if (DM == DispatchMode::Switch) {
      BaseSum = Sum;
      BaseInsts = S.Insts;
      BaseCycles = S.Cycles;
      continue;
    }
    EXPECT_EQ(Sum, BaseSum);
    EXPECT_EQ(S.Insts, BaseInsts);
    EXPECT_EQ(S.Cycles, BaseCycles);
  }
}

TEST_F(DispatchFixture, SampleCountSharedAcrossVersions) {
  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 10;
  Opts.Adaptive.Opt2Threshold = 20;
  VirtualMachine VM(P, Opts);
  Object *OA = make(VM, A, ACtor);
  for (int I = 0; I < 30; ++I)
    VM.call(DrvVirtual, {valueR(OA)});
  // The method keeps one cumulative sample count (paper section 3.2.3).
  EXPECT_GE(P.method(ATag).SampleCount, 30u);
}

} // namespace
