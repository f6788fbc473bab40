//===-- tests/DispatchTest.cpp - TIB/JTOC/IMT dispatch paths ------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "compiler/Eval.h"
#include "compiler/OptCompiler.h"
#include "runtime/CostModel.h"
#include "runtime/DecodedBody.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace dchm;

namespace {

/// A/B hierarchy with an interface; the driver calls through all four
/// invoke flavors.
struct DispatchFixture : ::testing::Test {
  // B.superTag() invokes A.tag via invokespecial (a `super.tag()` call).
  std::unique_ptr<Program> Prog = test::assemble(R"(
interface Tagged {
  method tag() -> i64
}
class A implements Tagged {
  ctor <init>() {
    ret
  }
  method tag() -> i64 {
    %1 = consti 1
    ret %1
  }
  method staticTag() -> i64 static {
    %0 = consti 77
    ret %0
  }
  method privTag() -> i64 private {
    %1 = consti 13
    ret %1
  }
  method callPriv() -> i64 {
    %1 = callspecial A.privTag(%this)
    ret %1
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
  method superTag() -> i64 {
    %1 = callspecial A.tag(%this)
    ret %1
  }
}
class Drv {
  method viaVirtual(%0: ref) -> i64 static {
    %1 = callvirtual A.tag(%0)
    ret %1
  }
  method viaInterface(%0: ref) -> i64 static {
    %1 = callinterface Tagged.tag(%0)
    ret %1
  }
}
)");
  Program &P = *Prog;
  ProgramIds Ids{P};
  ClassId Iface = Ids.cls("Tagged"), A = Ids.cls("A"), B = Ids.cls("B");
  MethodId IfaceTag = Ids.method("Tagged", "tag"), ATag = Ids.method("A", "tag"),
           BTag = Ids.method("B", "tag");
  MethodId ACtor = Ids.method("A", "<init>"), BCtor = Ids.method("B", "<init>");
  MethodId StaticTag = Ids.method("A", "staticTag"),
           PrivTag = Ids.method("A", "privTag"),
           CallPriv = Ids.method("A", "callPriv");
  MethodId DrvVirtual = Ids.method("Drv", "viaVirtual"),
           DrvIface = Ids.method("Drv", "viaInterface"),
           DrvSuper = Ids.method("B", "superTag");

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

// --- Recompilation and pinned dispatch cost (docs/dispatch.md) ---------------

TEST_F(DispatchFixture, RecompilationInvalidatesReplacedVersions) {
  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 10;
  Opts.Adaptive.Opt2Threshold = 50;
  VirtualMachine VM(P, Opts);
  Object *OA = make(VM, A, ACtor);
  for (int I = 0; I < 200; ++I)
    ASSERT_EQ(VM.call(DrvVirtual, {valueR(OA)}).I, 1);
  // Promotions patched TIB slots: every replaced version is invalidated and
  // the next call resolves straight to the newest general code through the
  // TIB.
  const MethodInfo &M = P.method(ATag);
  EXPECT_EQ(M.CurOptLevel, 2);
  for (const auto &CM : M.CompiledVersions)
    EXPECT_EQ(CM->isInvalidated(), CM.get() != M.General);
  EXPECT_EQ(P.cls(A).ClassTib->Slots[M.VSlot], M.General);
  EXPECT_EQ(VM.call(DrvVirtual, {valueR(OA)}).I, 1);
}

/// A dispatch-heavy kernel: an interface, a two-class hierarchy whose step()
/// adds 1 (A) or 2 (B) to field x, a static helper, and Kernel.run(n), whose
/// outer loop exercises every invoke flavor plus a tight arithmetic inner
/// loop. Unlike the fixture's drivers it runs loops, field traffic and
/// Print, and it is hot enough to promote to optimized bodies.
const char *DispatchKernelMvm = R"(
interface Work {
  method step()
}
class A implements Work {
  field x: i64
  ctor <init>() {
    %1 = consti 0
    putfield %this, A.x, %1
    ret
  }
  method step() {
    %1 = getfield %this, A.x
    %2 = consti 1
    %3 = add %1, %2
    putfield %this, A.x, %3
    ret
  }
  method get() -> i64 {
    %1 = getfield %this, A.x
    ret %1
  }
}
class B extends A {
  ctor <init>() {
    callspecial A.<init>(%this)
    ret
  }
  method step() {
    %1 = getfield %this, A.x
    %2 = consti 2
    %3 = add %1, %2
    putfield %this, A.x, %3
    ret
  }
}
class Helper {
  method scale(%0: i64) -> i64 static {
    %1 = consti 3
    %2 = mul %0, %1
    %3 = consti 1
    %4 = add %2, %3
    ret %4
  }
}
class Kernel {
  method run(%0: i64) -> i64 static {
    %1 = new A
    callspecial A.<init>(%1)
    %2 = new B
    callspecial B.<init>(%2)
    %3 = consti 1
    %4 = consti 64
    %5 = consti 0
    %6 = move %5
    %7 = consti 0
    %8 = move %7
  @L1:
    %9 = cmplt %6, %0
    cbz %9, @L4
    callvirtual A.step(%1)
    callvirtual A.step(%2)
    callinterface Work.step(%1)
    %10 = callstatic Helper.scale(%6)
    %8 = add %8, %10
    %12 = consti 0
    %13 = move %12
  @L2:
    %14 = cmplt %13, %4
    cbz %14, @L3
    %15 = consti 3
    %8 = add %8, %15
    %8 = xor %8, %13
    %13 = add %13, %3
    br @L2
  @L3:
    %6 = add %6, %3
    br @L1
  @L4:
    %20 = callvirtual A.get(%1)
    %21 = callvirtual A.get(%2)
    %22 = add %20, %21
    %8 = add %8, %22
    print %8
    ret %8
  }
}
)";

TEST_F(DispatchFixture, EveryInvokeFlavorChargesPinnedCost) {
  // Results and simulated accounting are pinned to the values the portable
  // switch loop (git revision de2be82) and the threaded loop both produced.
  // Freeze promotion so the VM executes the opt0 code of every driver.
  {
    VMOptions Opts;
    Opts.Adaptive.Opt1Threshold = 1u << 30;
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
    EXPECT_EQ(Sum, 3820);
    EXPECT_EQ(S.Insts, 884u);
    EXPECT_EQ(S.Cycles, 3616u);
  }
  // The kernel with default thresholds: the first call runs opt0 code and
  // promotes it; the later calls run the optimized bodies.
  std::unique_ptr<Program> KP = test::assemble(DispatchKernelMvm);
  MethodId Run = ProgramIds(*KP).method("Kernel", "run");
  VirtualMachine VM(*KP, {});
  struct Pin {
    int64_t Result;
    uint64_t Insts, Cycles;
  };
  const Pin Pins[] = {{1694860, 675031, 735179},
                      {1694860, 672025, 722147},
                      {1694860, 672025, 722147}};
  const ExecStats &S = VM.interp().stats();
  for (size_t Call = 0; Call < std::size(Pins); ++Call) {
    SCOPED_TRACE("kernel call " + std::to_string(Call));
    uint64_t Insts0 = S.Insts, Cycles0 = S.Cycles;
    EXPECT_EQ(VM.call(Run, {valueI(1000)}).I, Pins[Call].Result);
    EXPECT_EQ(S.Insts - Insts0, Pins[Call].Insts);
    EXPECT_EQ(S.Cycles - Cycles0, Pins[Call].Cycles);
  }
  EXPECT_GT(KP->method(Run).CurOptLevel, 0);
  EXPECT_EQ(VM.interp().outputHash(), 7527804370047805353ull);
}

TEST_F(DispatchFixture, SampleCountSharedAcrossVersions) {
  // The method keeps one cumulative sample count across its compiled
  // versions (paper section 3.2.3) up to promotion to the top tier. From
  // there on nothing reads it, so the general and the special versions
  // running on it take no samples and the count stays frozen.
  test::CounterFixture Fx;
  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 10;
  Opts.Adaptive.Opt2Threshold = 20;
  VirtualMachine VM(*Fx.P, Opts);
  VM.setMutationPlan(&Fx.Plan);
  // Modes 0 and 1 are the plan's hot states; mode 2 keeps the class TIB.
  Object *Objs[] = {Fx.makeCounter(VM, 0), Fx.makeCounter(VM, 1),
                    Fx.makeCounter(VM, 2)};
  const MethodInfo &M = Fx.P->method(Fx.Bump);
  uint64_t Calls = 0;
  while (M.CurOptLevel < TopOptLevel) {
    ASSERT_LT(Calls, 100u) << "never promoted";
    // bump() has no back edge: one call, one sample, whichever receiver.
    VM.call(Fx.Bump, {valueR(Objs[Calls % 3])});
    ++Calls;
    EXPECT_EQ(M.SampleCount, Calls);
  }
  EXPECT_EQ(Calls, Opts.Adaptive.Opt2Threshold);
  ASSERT_EQ(M.Specials.size(), 2u);
  for (unsigned S = 0; S < 2; ++S)
    ASSERT_EQ(Objs[S]->Tib->Slots[M.VSlot], M.Specials[S]);
  EXPECT_EQ(Objs[2]->Tib->Slots[M.VSlot], M.General);
  for (int I = 0; I < 90; ++I)
    VM.call(Fx.Bump, {valueR(Objs[I % 3])});
  EXPECT_EQ(M.SampleCount, Calls);
}

// --- Per-opcode threaded handlers -------------------------------------------

/// The instruction shapes the threaded loop fuses (or deliberately leaves
/// unfused) around a binop or compare.
enum class OpShape {
  Plain,      ///< op, then an unrelated instruction
  Move,       ///< op + Move of the result
  MoveBrBack, ///< op + Move + loop-closing Br (a back edge)
  Ret,        ///< op + Ret of the result
  CbnzFwd,    ///< compare + Cbnz to a later block
  CbzFwd,     ///< compare + Cbz to a later block
  CbnzBack,   ///< compare + Cbnz back to the loop head
  CbzBack,    ///< compare + Cbz back to the loop head
};

const char *shapeName(OpShape S) {
  static const char *const Names[] = {"Plain",   "Move",   "MoveBrBack",
                                      "Ret",     "CbnzFwd", "CbzFwd",
                                      "CbnzBack", "CbzBack"};
  return Names[static_cast<int>(S)];
}

bool isFloatOperandOp(Opcode Op) {
  switch (Op) {
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::FCmpEQ:
  case Opcode::FCmpLT:
  case Opcode::FCmpLE:
    return true;
  default:
    return false;
  }
}

bool isCompareOp(Opcode Op) {
  return (Op >= Opcode::CmpEQ && Op <= Opcode::CmpGE) ||
         (Op >= Opcode::FCmpEQ && Op <= Opcode::FCmpLE);
}

bool inOpList(Opcode Op, std::initializer_list<Opcode> Ops) {
  return std::find(Ops.begin(), Ops.end(), Op) != Ops.end();
}

/// How many instructions the decoder groups with Op in shape S: the
/// expectation that makes the fused shape exercise a fused handler, and
/// that keeps the shapes that never fuse (Div, Rem, anything + Ret) on
/// single-instruction entries.
size_t groupSize(Opcode Op, OpShape S) {
#define DCHM_X(OP) Opcode::OP,
  bool FusedBinop = inOpList(Op, {DCHM_FUSED_BINOPS(DCHM_X)});
  bool BranchCmp = inOpList(Op, {DCHM_BRANCH_CMPS(DCHM_X)});
#undef DCHM_X
  switch (S) {
  case OpShape::Move:
    return FusedBinop ? 2 : 1;
  case OpShape::MoveBrBack:
    return FusedBinop ? 3 : 1;
  case OpShape::Plain:
  case OpShape::Ret: // a Ret never joins a group
    return 1;
  default:
    return BranchCmp ? 2 : 1;
  }
}

/// Builds static method `(a, b) -> r` running Op in shape S. Separated
/// puts a ConstNull, which the decoder never fuses, right after Op: the
/// same computation with Op on its single-instruction handler.
IRFunction buildShape(Opcode Op, OpShape S, bool Separated) {
  Type OperandTy = isFloatOperandOp(Op) ? Type::F64 : Type::I64;
  bool FloatResult = OperandTy == Type::F64 && !isCompareOp(Op);
  Type ResultTy = FloatResult ? Type::F64 : Type::I64;
  auto Emit = [&](FunctionBuilder &B, Reg X, Reg Y) {
    Reg V = isCompareOp(Op) ? B.cmp(Op, X, Y) : B.arith(Op, X, Y);
    if (Separated)
      B.constNull();
    return V;
  };
  bool Branchy = S >= OpShape::CbnzFwd;
  FunctionBuilder B(std::string(opcodeName(Op)) + "." + shapeName(S) +
                        (Separated ? ".sep" : ""),
                    Branchy ? Type::I64 : ResultTy);
  Reg X = B.addArg(OperandTy);
  Reg Y = B.addArg(OperandTy);
  switch (S) {
  case OpShape::Plain: {
    Reg T = Emit(B, X, Y);
    B.constI(0);
    B.ret(T);
    break;
  }
  case OpShape::Move: {
    Reg V = B.newReg(ResultTy);
    B.move(V, Emit(B, X, Y));
    B.ret(V);
    break;
  }
  case OpShape::MoveBrBack: {
    // Three iterations; the body ends in op, Move, Br back to the head.
    Reg V = B.newReg(ResultTy);
    B.move(V, FloatResult ? B.constF(0.0) : B.constI(0));
    Reg I = B.newReg(Type::I64);
    B.move(I, B.constI(0));
    Reg Three = B.constI(3);
    Reg One = B.constI(1);
    auto Head = B.makeLabel(), Done = B.makeLabel();
    B.bind(Head);
    B.cbz(B.cmp(Opcode::CmpLT, I, Three), Done);
    B.move(I, B.add(I, One));
    B.move(V, Emit(B, X, Y));
    B.br(Head);
    B.bind(Done);
    B.ret(V);
    break;
  }
  case OpShape::Ret:
    B.ret(Emit(B, X, Y));
    break;
  case OpShape::CbnzFwd:
  case OpShape::CbzFwd: {
    auto Target = B.makeLabel();
    Reg C = Emit(B, X, Y);
    if (S == OpShape::CbnzFwd)
      B.cbnz(C, Target);
    else
      B.cbz(C, Target);
    B.ret(B.constI(10));
    B.bind(Target);
    B.ret(B.constI(20));
    break;
  }
  case OpShape::CbnzBack:
  case OpShape::CbzBack: {
    // Up to three trips; each taken compare branch is a back edge. Returns
    // the trip count.
    Reg I = B.newReg(Type::I64);
    B.move(I, B.constI(0));
    Reg Three = B.constI(3);
    Reg One = B.constI(1);
    auto Head = B.makeLabel(), Done = B.makeLabel();
    B.bind(Head);
    B.move(I, B.add(I, One));
    B.cbz(B.cmp(Opcode::CmpLT, I, Three), Done);
    Reg C = Emit(B, X, Y);
    if (S == OpShape::CbnzBack)
      B.cbnz(C, Head);
    else
      B.cbz(C, Head);
    B.bind(Done);
    B.ret(I);
    break;
  }
  }
  return B.finalize();
}

/// The IR opcodes one call of buildShape(Op, S, Separated) executes, in
/// order, when Op evaluates to V; the source of the pinned counts.
std::vector<Opcode> shapeTrace(Opcode Op, OpShape S, bool Separated,
                               Value V) {
  using O = Opcode;
  std::vector<Opcode> T;
  auto Add = [&](std::initializer_list<Opcode> Ops) {
    T.insert(T.end(), Ops.begin(), Ops.end());
  };
  auto AddOp = [&] {
    T.push_back(Op);
    if (Separated)
      T.push_back(O::ConstNull);
  };
  bool Taken = (V.I != 0) == (S == OpShape::CbnzFwd || S == OpShape::CbnzBack);
  switch (S) {
  case OpShape::Plain:
    AddOp();
    Add({O::ConstI, O::Ret});
    break;
  case OpShape::Move:
    AddOp();
    Add({O::Move, O::Ret});
    break;
  case OpShape::MoveBrBack:
    Add({isFloatOperandOp(Op) && !isCompareOp(Op) ? O::ConstF : O::ConstI,
         O::Move, O::ConstI, O::Move, O::ConstI, O::ConstI});
    for (int Trip = 0; Trip < 3; ++Trip) {
      Add({O::CmpLT, O::Cbz, O::Add, O::Move});
      AddOp();
      Add({O::Move, O::Br});
    }
    Add({O::CmpLT, O::Cbz, O::Ret});
    break;
  case OpShape::Ret:
    AddOp();
    Add({O::Ret});
    break;
  case OpShape::CbnzFwd:
  case OpShape::CbzFwd:
    AddOp();
    Add({S == OpShape::CbnzFwd ? O::Cbnz : O::Cbz, O::ConstI, O::Ret});
    break;
  case OpShape::CbnzBack:
  case OpShape::CbzBack:
    // Trip 1 always reaches the compare; a taken branch repeats it on trip
    // 2, and trip 3 leaves at the loop test.
    Add({O::ConstI, O::Move, O::ConstI, O::ConstI});
    for (int Trip = 0; Trip < (Taken ? 2 : 1); ++Trip) {
      Add({O::Add, O::Move, O::CmpLT, O::Cbz});
      AddOp();
      T.push_back(S == OpShape::CbnzBack ? O::Cbnz : O::Cbz);
    }
    if (Taken)
      Add({O::Add, O::Move, O::CmpLT, O::Cbz});
    Add({O::Ret});
    break;
  }
  return T;
}

/// The result buildShape(Op, S, ...) returns when Op evaluates to V.
int64_t shapeResult(OpShape S, Value V) {
  switch (S) {
  case OpShape::CbnzFwd:
    return V.I != 0 ? 20 : 10;
  case OpShape::CbzFwd:
    return V.I == 0 ? 20 : 10;
  case OpShape::CbnzBack:
    return V.I != 0 ? 3 : 1;
  case OpShape::CbzBack:
    return V.I == 0 ? 3 : 1;
  default:
    return V.I;
  }
}

TEST(ThreadedHandlers, EveryBinopAndCompareMatchesEvalInEveryShape) {
  // Every shape runs twice: as written, where the decoder fuses Op with its
  // neighbours, and separated, where Op runs alone. Both must return the
  // bits compiler/Eval.h computes, and charge exactly the instructions and
  // opcodeCycles of the path they take (the separator included).
  const Opcode Ops[] = {
      Opcode::Add,    Opcode::Sub,    Opcode::Mul,   Opcode::Div,
      Opcode::Rem,    Opcode::And,    Opcode::Or,    Opcode::Xor,
      Opcode::Shl,    Opcode::Shr,    Opcode::FAdd,  Opcode::FSub,
      Opcode::FMul,   Opcode::FDiv,   Opcode::CmpEQ, Opcode::CmpNE,
      Opcode::CmpLT,  Opcode::CmpLE,  Opcode::CmpGT, Opcode::CmpGE,
      Opcode::FCmpEQ, Opcode::FCmpLT, Opcode::FCmpLE};
  // Shift counts of 64 and above, wrapping arithmetic (INT64_MIN / -1
  // included), and only non-zero divisors (Div/Rem trap on zero); all
  // orderings for the compares.
  const int64_t Big = std::numeric_limits<int64_t>::max();
  const std::pair<int64_t, int64_t> IntArgs[] = {
      {7, 3},  {-7, 3},   {3, 7},   {5, 5},  {-9, -2},
      {1, 64}, {-3, 65},  {1, 127}, {5, -1}, {Big, 2},
      {-Big - 1, 3}, {-Big - 1, -1}};
  // NaN on either side and both, signed zeros, infinities.
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> FloatArgs[] = {
      {1.5, 2.25}, {2.25, 1.5}, {3.0, 3.0},  {NaN, 1.0}, {1.0, NaN},
      {NaN, NaN},  {-0.0, 0.0}, {Inf, -Inf}, {1.0, 0.0}};

  Program P;
  ClassId K = P.defineClass("K");
  struct Case {
    Opcode Op;
    OpShape S;
    bool Separated;
    MethodId M;
  };
  std::vector<Case> Cases;
  for (Opcode Op : Ops)
    for (int SI = 0; SI <= static_cast<int>(OpShape::CbzBack); ++SI) {
      OpShape S = static_cast<OpShape>(SI);
      if (S >= OpShape::CbnzFwd && !isCompareOp(Op))
        continue;
      for (bool Separated : {false, true}) {
        IRFunction F = buildShape(Op, S, Separated);
        std::vector<Type> Params(F.RegTypes.begin(),
                                 F.RegTypes.begin() + F.NumArgs);
        MethodId M = P.defineMethod(K, F.Name, F.RetTy, Params,
                                    {.IsStatic = true});
        P.setBody(M, std::move(F));
        Cases.push_back({Op, S, Separated, M});
      }
    }
  P.link();

  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 1u << 30; // every case runs its opt0 body
  VirtualMachine VM(P, Opts);
  for (const Case &C : Cases) {
    std::vector<std::pair<Value, Value>> Args;
    if (isFloatOperandOp(C.Op))
      for (auto [X, Y] : FloatArgs)
        Args.push_back({valueF(X), valueF(Y)});
    else
      for (auto [X, Y] : IntArgs)
        Args.push_back({valueI(X), valueI(Y)});
    for (size_t A = 0; A < Args.size(); ++A) {
      SCOPED_TRACE(P.method(C.M).Name + " operands #" + std::to_string(A));
      Value V = evalBinop(C.Op, Args[A].first, Args[A].second);
      std::vector<Opcode> Path = shapeTrace(C.Op, C.S, C.Separated, V);
      uint64_t WantCycles = 0;
      for (Opcode Op : Path)
        WantCycles += opcodeCycles(Op);
      ExecStats Before = VM.interp().stats();
      Value R = VM.call(C.M, {Args[A].first, Args[A].second});
      const ExecStats &After = VM.interp().stats();
      // Bit for bit, NaN payloads included.
      EXPECT_EQ(R.I, shapeResult(C.S, V));
      EXPECT_EQ(After.Insts - Before.Insts, Path.size());
      EXPECT_EQ(After.Cycles - Before.Cycles, WantCycles);
    }
    // The last instruction with Op's opcode is Op itself (the loop shapes'
    // own Add/CmpLT come before it). It starts the group under test.
    const CompiledMethod *CM = P.staticEntry(C.M);
    size_t At = CM->code().Insts.size() - 1;
    while (CM->code().Insts[At].Op != C.Op)
      --At;
    EXPECT_EQ(CM->decoded()[At].Count,
              C.Separated ? 1 : groupSize(C.Op, C.S))
        << P.method(C.M).Name;
  }
}

// --- The decoded stream (runtime/DecodedBody.h) -----------------------------

/// One way into a body whose fused group may be entered at any member: the
/// expected result bits and per-call accounting.
struct EntryPath {
  int64_t Bits;
  uint64_t Insts, Cycles, Samples;
};

/// A body with one fused group at GroupStart. Arguments are (S1, S2, X, Y),
/// or (Obj, S1, S2) for the field-load group, an instance method on Obj
/// that reads its fields f = 11 and g = 4. S1 != 0 branches to the group's
/// second instruction, S2 != 0 to its third. Paths[k] is the expectation
/// when entering at member k.
struct MidGroupCase {
  IRFunction Body;
  size_t GroupStart;
  HandlerId Group;
  std::vector<EntryPath> Paths;
  Value X, Y; ///< unused by the field-load group
  bool OnReceiver = false; ///< the field-load group's instance method
};

/// The handler K places after Base in its HandlerId block.
HandlerId nth(HandlerId Base, size_t K) {
  return static_cast<HandlerId>(static_cast<size_t>(Base) + K);
}

/// Registers skipped by a mid-group entry stay zero, so paths that enter
/// past the constant see 0 in its place.
std::vector<MidGroupCase> buildMidGroupCases(FieldId FF, FieldId FG) {
  std::vector<MidGroupCase> Cases;
  const Value IX = valueI(5), IY = valueI(3);
  const Value FX = valueF(1.5), FY = valueF(2.25);
  // Arguments and the selector prologue: cbnz S2 (3-groups only), cbnz S1.
  struct Entry {
    FunctionBuilder B;
    FunctionBuilder::Label L1, L2;
    Entry(const std::string &Name, Type RetTy, Type XTy, bool Three)
        : B(Name, RetTy), L1(B.makeLabel()), L2(B.makeLabel()) {
      Reg S1 = B.addArg(Type::I64);
      Reg S2 = B.addArg(Type::I64);
      B.addArg(XTy);
      B.addArg(XTy);
      if (Three)
        B.cbnz(S2, L2);
      B.cbnz(S1, L1);
    }
  };
  const Reg X = 2, Y = 3;

  const Opcode ConstArith[] = {
#define DCHM_X(OP) Opcode::OP,
      DCHM_CONST_ARITH_OPS(DCHM_X)
#undef DCHM_X
  };
  for (size_t K = 0; K < std::size(ConstArith); ++K) {
    Opcode Op = ConstArith[K];
    int64_t Full = evalBinop(Op, valueI(7), IX).I;
    int64_t Skip = evalBinop(Op, valueI(0), IX).I;
    uint64_t C = opcodeCycles(Op);
    std::string N = opcodeName(Op);
    // ConstI + op, then an unfusable ConstI before the Ret.
    Entry E("ConstI_" + N, Type::I64, Type::I64, false);
    Reg Kc = E.B.constI(7);
    E.B.bind(E.L1);
    Reg S = E.B.arith(Op, Kc, X);
    E.B.constI(0);
    E.B.ret(S);
    Cases.push_back({E.B.finalize(), 1, nth(HandlerId::ConstI_Add, K),
                     {{Full, 5, 5 + C, 1}, {Skip, 4, 4 + C, 1}}, IX, IY});
  }

  const Opcode Binops[] = {
#define DCHM_X(OP) Opcode::OP,
      DCHM_FUSED_BINOPS(DCHM_X)
#undef DCHM_X
  };
  for (size_t K = 0; K < std::size(Binops); ++K) {
    Opcode Op = Binops[K];
    bool FloatOps = isFloatOperandOp(Op);
    Type OpTy = FloatOps ? Type::F64 : Type::I64;
    Type ResTy = FloatOps && !isCompareOp(Op) ? Type::F64 : Type::I64;
    Value VX = FloatOps ? FX : IX, VY = FloatOps ? FY : IY;
    int64_t Full = evalBinop(Op, VX, VY).I;
    uint64_t C = opcodeCycles(Op);
    std::string N = opcodeName(Op);
    auto Emit = [&](FunctionBuilder &B) {
      return isCompareOp(Op) ? B.cmp(Op, X, Y) : B.arith(Op, X, Y);
    };
    {
      Entry E(N + "_Move", ResTy, OpTy, false);
      Reg V = E.B.newReg(ResTy);
      Reg S = Emit(E.B);
      E.B.bind(E.L1);
      E.B.move(V, S);
      E.B.ret(V);
      Cases.push_back({E.B.finalize(), 1, nth(HandlerId::Add_Move, K),
                       {{Full, 4, 4 + C, 1}, {0, 3, 4, 1}}, VX, VY});
    }
    {
      // The Br closes a back edge to a Ret placed before the group; every
      // path takes it once, so each samples the entry and one back edge.
      Entry E(N + "_Move_Br", ResTy, OpTy, true);
      Reg V = E.B.newReg(ResTy);
      auto Group = E.B.makeLabel(), Exit = E.B.makeLabel();
      E.B.br(Group);
      E.B.bind(Exit);
      E.B.ret(V);
      E.B.bind(Group);
      Reg S = Emit(E.B);
      E.B.bind(E.L1);
      E.B.move(V, S);
      E.B.bind(E.L2);
      E.B.br(Exit);
      Cases.push_back({E.B.finalize(), 4, nth(HandlerId::Add_Move_Br, K),
                       {{Full, 7, 7 + C, 2}, {0, 5, 6, 2}, {0, 3, 4, 2}},
                       VX, VY});
    }
  }

  const Opcode Cmps[] = {
#define DCHM_X(OP) Opcode::OP,
      DCHM_BRANCH_CMPS(DCHM_X)
#undef DCHM_X
  };
  for (size_t K = 0; K < std::size(Cmps); ++K)
    for (bool Cbnz : {true, false}) {
      Opcode Op = Cmps[K];
      std::string N = std::string(opcodeName(Op)) + (Cbnz ? "_Cbnz" : "_Cbz");
      bool Taken = (evalBinop(Op, IX, IY).I != 0) == Cbnz;
      // Entering at the branch sees a zero compare result.
      bool TakenAtBranch = !Cbnz;
      Entry E(N, Type::I64, Type::I64, false);
      auto Target = E.B.makeLabel();
      Reg Cmp = E.B.cmp(Op, X, Y);
      E.B.bind(E.L1);
      if (Cbnz)
        E.B.cbnz(Cmp, Target);
      else
        E.B.cbz(Cmp, Target);
      E.B.ret(E.B.constI(10));
      E.B.bind(Target);
      E.B.ret(E.B.constI(20));
      Cases.push_back(
          {E.B.finalize(), 1,
           nth(Cbnz ? HandlerId::CmpEQ_Cbnz : HandlerId::CmpEQ_Cbz, K),
           {{Taken ? 20 : 10, 5, 6, 1}, {TakenAtBranch ? 20 : 10, 4, 5, 1}},
           IX, IY});
    }

  {
    // Both loads read the receiver, which the call null-checked; the same
    // pair off any other register would not fuse.
    FunctionBuilder B("GetField_GetField", Type::I64);
    Reg This = B.addArg(Type::Ref);
    Reg S1 = B.addArg(Type::I64);
    B.addArg(Type::I64);
    auto L1 = B.makeLabel();
    B.cbnz(S1, L1);
    Reg A = B.getField(This, FF, Type::I64);
    B.bind(L1);
    Reg G = B.getField(This, FG, Type::I64);
    B.ret(B.add(A, G));
    Cases.push_back({B.finalize(), 1, HandlerId::GetField_GetField,
                     {{11 + 4, 5, 8, 1}, {4, 4, 6, 1}}, {}, {}, true});
  }
  return Cases;
}

TEST(DecodedStream, BranchIntoEveryFusedGroupMatchesPins) {
  Program P;
  ClassId K = P.defineClass("K");
  FieldId FF = P.defineField(K, "f", Type::I64, false);
  FieldId FG = P.defineField(K, "g", Type::I64, false);
  std::vector<MidGroupCase> Cases = buildMidGroupCases(FF, FG);
  std::vector<MethodId> Ids;
  for (MidGroupCase &C : Cases) {
    // The receiver is not among a method's declared parameters.
    std::vector<Type> Params(C.Body.RegTypes.begin() + C.OnReceiver,
                             C.Body.RegTypes.begin() + C.Body.NumArgs);
    MethodId M = P.defineMethod(K, C.Body.Name, C.Body.RetTy, Params,
                                {.IsStatic = !C.OnReceiver,
                                 .IsPrivate = C.OnReceiver});
    P.setBody(M, C.Body);
    Ids.push_back(M);
  }
  P.link();

  VMOptions Opts;
  Opts.Adaptive.Opt1Threshold = 1u << 30; // every case runs its opt0 body
  VirtualMachine VM(P, Opts);
  ClassInfo &CI = P.cls(K);
  Object *O = VM.heap().allocateInstance(CI, CI.ClassTib);
  O->set(P.field(FF).Slot, valueI(11));
  O->set(P.field(FG).Slot, valueI(4));
  for (size_t I = 0; I < Cases.size(); ++I) {
    const MidGroupCase &C = Cases[I];
    for (size_t Entry = 0; Entry < C.Paths.size(); ++Entry) {
      SCOPED_TRACE(C.Body.Name + " entered at member " + std::to_string(Entry));
      std::vector<Value> Args = {valueI(Entry == 1), valueI(Entry == 2)};
      if (C.OnReceiver) {
        Args.insert(Args.begin(), valueR(O));
      } else {
        Args.push_back(C.X);
        Args.push_back(C.Y);
      }
      ExecStats Before = VM.interp().stats();
      uint64_t Samples0 = P.method(Ids[I]).SampleCount;
      Value R = VM.call(Ids[I], Args);
      const ExecStats &After = VM.interp().stats();
      const EntryPath &Want = C.Paths[Entry];
      EXPECT_EQ(R.I, Want.Bits);
      EXPECT_EQ(After.Insts - Before.Insts, Want.Insts);
      EXPECT_EQ(After.Cycles - Before.Cycles, Want.Cycles);
      EXPECT_EQ(P.method(Ids[I]).SampleCount - Samples0, Want.Samples);
    }
    // The paths above ran the fused handler under test.
    const CompiledMethod *CM = P.method(Ids[I]).General;
    EXPECT_EQ(CM->decoded()[C.GroupStart].Handler,
              static_cast<uint8_t>(C.Group))
        << C.Body.Name;
    EXPECT_EQ(CM->decoded()[C.GroupStart].Count, C.Paths.size())
        << C.Body.Name;
  }
}

/// True when In may sit in a fused group, last or not: no member may trap
/// or return, and only the last may branch. A field load off the receiver
/// of an instance method cannot trap (the call null-checked the receiver,
/// and no instruction writes an argument register); every other opcode the
/// opcode table does not mark removable-when-dead can trap or return.
bool mayJoinGroup(const IRFunction &F, const Instruction &In, bool Last) {
  if (isBranch(In.Op))
    return Last;
  if (In.Op == Opcode::GetField)
    return F.HasReceiver && In.A == 0;
  return isRemovableWhenDead(In.Op);
}

TEST(DecodedStream, NoGroupCanTrapReturnOrBranchBeforeItsEnd) {
  // Every sequence of three opcodes, then a Ret, so that a trapping or
  // returning member lands in every fusable position (GetField;GetField;
  // Ret, Div;Move;Br, ConstI;Add;Ret, Add;Ret, ...). Two wirings: a chain
  // where each instruction reads the one before it, which meets every
  // "reads the leader's result" rule, and every instruction reading
  // register 0 of an instance method, the receiver.
  IRFunction F;
  F.Name = "shapes";
  F.NumArgs = 1;
  F.RegTypes.assign(5, Type::I64);
  size_t Groups = 0, Bad = 0;
  for (bool OnReceiver : {false, true}) {
    F.HasReceiver = OnReceiver;
    for (unsigned Op0 = 0; Op0 < NumOpcodes; ++Op0)
      for (unsigned Op1 = 0; Op1 < NumOpcodes; ++Op1)
        for (unsigned Op2 = 0; Op2 < NumOpcodes; ++Op2) {
          F.Insts.clear();
          for (unsigned Op : {Op0, Op1, Op2}) {
            Instruction In{};
            In.Op = static_cast<Opcode>(Op);
            In.A = In.B = OnReceiver ? 0 : static_cast<Reg>(F.Insts.size());
            In.Dst = static_cast<Reg>(F.Insts.size() + 1);
            F.Insts.push_back(In); // a branch targets instruction 0
          }
          Instruction Ret{};
          Ret.Op = Opcode::Ret;
          Ret.A = 3;
          F.Insts.push_back(Ret);
          Expected<std::vector<DecodedInst>> Dec = decodeBody(F);
          ASSERT_TRUE(Dec);
          for (size_t I = 0; I < F.Insts.size(); ++I) {
            size_t Count = (*Dec)[I].Count;
            if (Count == 1)
              continue;
            ++Groups;
            for (size_t J = I; J < I + Count; ++J)
              if (!mayJoinGroup(F, F.Insts[J], J + 1 == I + Count) &&
                  ++Bad <= 10)
                ADD_FAILURE() << opcodeName(F.Insts[0].Op) << ";"
                              << opcodeName(F.Insts[1].Op) << ";"
                              << opcodeName(F.Insts[2].Op) << ";ret"
                              << (OnReceiver ? " off the receiver" : "")
                              << ": a group at " << I << " holds "
                              << opcodeName(F.Insts[J].Op) << " at " << J;
          }
        }
  }
  EXPECT_EQ(Bad, 0u);
  EXPECT_GT(Groups, 0u);
}

/// A minimal well-formed body: `ret 0`.
IRFunction retZero() {
  FunctionBuilder B("F", Type::I64);
  B.ret(B.constI(0));
  return B.finalize();
}

TEST(DecodedStream, RejectsBodyNotEndingInBrOrRet) {
  IRFunction F = retZero();
  ASSERT_TRUE(decodeBody(F));
  F.Insts.pop_back(); // ends in ConstI now
  Expected<std::vector<DecodedInst>> D = decodeBody(F);
  ASSERT_FALSE(D);
  EXPECT_NE(D.takeError().message().find("does not end in br or ret"),
            std::string::npos);
  F.Insts.clear();
  EXPECT_FALSE(decodeBody(F));
}

TEST(DecodedStream, RejectsBranchTargetOutsideBody) {
  FunctionBuilder B("F", Type::I64);
  Reg X = B.addArg(Type::I64);
  auto L = B.makeLabel();
  B.cbnz(X, L);
  B.bind(L);
  B.ret(X);
  IRFunction F = B.finalize();
  ASSERT_TRUE(decodeBody(F));
  F.Insts[0].Imm = static_cast<int64_t>(F.Insts.size()); // one past the end
  Expected<std::vector<DecodedInst>> D = decodeBody(F);
  ASSERT_FALSE(D);
  EXPECT_NE(D.takeError().message().find("outside the body"),
            std::string::npos);
  F.Insts[0].Imm = -1;
  EXPECT_FALSE(decodeBody(F));
}

TEST(DecodedStream, InvalidatedBodyKeepsDecodedArray) {
  Program P;
  ClassId K = P.defineClass("K");
  MethodId M = P.defineMethod(K, "f", Type::I64, {}, {.IsStatic = true});
  P.setBody(M, retZero());
  P.link();
  OptCompiler Compiler(P);
  CompiledMethod *CM = Compiler.compileGeneral(P.method(M), 0);
  ASSERT_EQ(CM->decoded().size(), CM->code().Insts.size());
  EXPECT_EQ(CM->decoded()[0].Handler, static_cast<uint8_t>(Opcode::ConstI));
  // A replaced or retired body stays runnable: frames and stranded objects
  // may still execute it.
  CM->invalidate();
  EXPECT_TRUE(CM->isInvalidated());
  ASSERT_EQ(CM->decoded().size(), CM->code().Insts.size());
  EXPECT_EQ(CM->decoded()[0].Handler, static_cast<uint8_t>(Opcode::ConstI));
}

// Bodies are verified at link; these tamper with a linked method's bytecode
// to stand in for an optimizer that emits a malformed body.
TEST(DecodedStreamDeath, AuditedCompileVerifiesTheFinishedBody) {
  Program P;
  ClassId K = P.defineClass("K");
  MethodId M = P.defineMethod(K, "f", Type::I64, {Type::I64},
                              {.IsStatic = true});
  FunctionBuilder B("K.f", Type::I64);
  Reg X = B.addArg(Type::I64);
  B.ret(B.add(X, B.constI(1)));
  P.setBody(M, B.finalize());
  P.link();
  P.method(M).Bytecode.Insts[0].Dst = X; // writes an argument register
  OptCompiler Quiet(P);
  EXPECT_NE(Quiet.compileGeneral(P.method(M), 0), nullptr); // default: off
  OptCompiler Audited(P);
  Audited.setVerifyBodies(true);
  EXPECT_DEATH(Audited.compileGeneral(P.method(M), 0),
               "compiled body of 'K.f' \\(opt0, general\\) is malformed: "
               "K.f: inst 0: writes an argument register");
}

TEST(DecodedStreamDeath, CompileRejectsBranchOutsideTheBody) {
  Program P;
  ClassId K = P.defineClass("K");
  MethodId M = P.defineMethod(K, "f", Type::I64, {}, {.IsStatic = true});
  FunctionBuilder B("K.f", Type::I64);
  auto L = B.makeLabel();
  B.br(L);
  B.bind(L);
  B.ret(B.constI(0));
  P.setBody(M, B.finalize());
  P.link();
  P.method(M).Bytecode.Insts[0].Imm = 3;
  OptCompiler C(P);
  EXPECT_DEATH(C.compileGeneral(P.method(M), 0),
               "compiled body of 'K.f' \\(opt0, general\\) is malformed: "
               "K.f: branch at 0 targets 3, outside the body of 3");
}

} // namespace
