//===-- tests/AnalysisTest.cpp - Offline analyses (EQ 1, profiler, OLC) -------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/OfflinePipeline.h"
#include "analysis/OlcAnalysis.h"
#include "analysis/StateFieldAnalysis.h"
#include "analysis/ValueProfiler.h"
#include "testing/MvmRun.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

using namespace dchm;
using dchm::test::CounterFixture;

namespace {

/// Synthesizes a hot-method profile assigning the given hotness values.
HotMethodProfile profileWith(const Program &P,
                             std::vector<std::pair<MethodId, double>> Hot) {
  HotMethodProfile Prof;
  Prof.Hotness.assign(P.numMethods(), 0.0);
  for (auto [M, H] : Hot)
    Prof.Hotness[M] = H;
  for (size_t M = 0; M < P.numMethods(); ++M)
    Prof.Ranked.push_back(static_cast<MethodId>(M));
  return Prof;
}

/// A value profiler recording the candidates' profiled fields, marked
/// IsObserved the way the offline pipeline marks what it records.
std::unique_ptr<ValueProfiler>
observeCandidates(Program &P, const std::vector<ClassStateFields> &Cands) {
  std::vector<FieldId> Fields = ValueProfiler::profiledFields(Cands);
  for (FieldId F : Fields)
    P.field(F).IsObserved = true;
  return std::make_unique<ValueProfiler>(P, Fields);
}

TEST(StateFieldAnalysis, BranchUseInHotMethodScores) {
  CounterFixture Fx;
  HotMethodProfile Prof = profileWith(*Fx.P, {{Fx.Bump, 0.8}});
  auto Res = analyzeStateFields(*Fx.P, Prof);
  // Counter declares the hot bump(); mode is used in its branches.
  bool FoundMode = false;
  for (const ClassStateFields &C : Res) {
    if (C.Cls != Fx.Counter)
      continue;
    for (const StateFieldCandidate &F : C.Candidates)
      if (F.Field == Fx.Mode) {
        FoundMode = true;
        EXPECT_GT(F.Score, 0.0);
      }
  }
  EXPECT_TRUE(FoundMode);
}

TEST(StateFieldAnalysis, ColdMethodsYieldNoCandidates) {
  CounterFixture Fx;
  HotMethodProfile Prof = profileWith(*Fx.P, {}); // nothing hot
  auto Res = analyzeStateFields(*Fx.P, Prof);
  EXPECT_TRUE(Res.empty());
}

TEST(StateFieldAnalysis, NonBranchFieldDoesNotScore) {
  CounterFixture Fx;
  HotMethodProfile Prof = profileWith(*Fx.P, {{Fx.Bump, 0.8}, {Fx.Get, 0.2}});
  auto Res = analyzeStateFields(*Fx.P, Prof);
  // `total` is read and written in hot methods but never feeds a branch:
  // its assignments in the hot bump() should keep it out.
  for (const ClassStateFields &C : Res)
    for (const StateFieldCandidate &F : C.Candidates)
      EXPECT_NE(F.Field, Fx.Total);
}

TEST(StateFieldAnalysis, HotAssignmentPenaltyKnocksFieldOut) {
  // A field used in branches but also reassigned (non-constant) in the same
  // hot method fails EQ 1: the penalty R * 0.9 outweighs the branch use 0.9.
  Program P;
  ClassId C = P.defineClass("C");
  FieldId F = P.defineField(C, "f", Type::I64, false);
  MethodId M = P.defineMethod(C, "churn", Type::I64, {Type::I64});
  {
    FunctionBuilder B("C.churn", Type::I64);
    Reg This = B.addArg(Type::Ref);
    Reg X = B.addArg(Type::I64);
    Reg V = B.getField(This, F, Type::I64);
    auto L = B.makeLabel();
    B.cbz(V, L);
    B.bind(L);
    B.putField(This, F, X); // varying assignment in the hot method
    B.ret(V);
    P.setBody(M, B.finalize());
  }
  P.link();
  HotMethodProfile Prof = profileWith(P, {{M, 0.9}});
  static_assert(AssignmentPenaltyR > 1.0);
  auto Res = analyzeStateFields(P, Prof);
  for (const ClassStateFields &CS : Res)
    for (const StateFieldCandidate &Cand : CS.Candidates)
      EXPECT_NE(Cand.Field, F);
}

TEST(StateFieldAnalysis, SameConstantAssignmentIsExempt) {
  // The paper's relaxation: a field always assigned the same constant in a
  // hot function keeps its score. Without it the penalty R * 0.9 would
  // outweigh the branch use 0.9 and knock the field out.
  Program P;
  ClassId C = P.defineClass("C");
  FieldId F = P.defineField(C, "f", Type::I64, false);
  MethodId M = P.defineMethod(C, "steady", Type::I64, {});
  {
    FunctionBuilder B("C.steady", Type::I64);
    Reg This = B.addArg(Type::Ref);
    Reg V = B.getField(This, F, Type::I64);
    auto L = B.makeLabel();
    B.cbz(V, L);
    B.bind(L);
    Reg C5 = B.constI(5);
    B.putField(This, F, C5); // constant, same every time
    B.ret(V);
    P.setBody(M, B.finalize());
  }
  P.link();
  HotMethodProfile Prof = profileWith(P, {{M, 0.9}});
  static_assert(AssignmentPenaltyR > 1.0);
  auto Res = analyzeStateFields(P, Prof);
  bool Found = false;
  for (const ClassStateFields &CS : Res)
    for (const StateFieldCandidate &Cand : CS.Candidates)
      Found |= Cand.Field == F;
  EXPECT_TRUE(Found);
}

TEST(StateFieldAnalysis, LoopNestingBoostsScore) {
  // The same branch use inside a loop must score higher than outside.
  auto Build = [](bool InLoop) {
    auto P = std::make_unique<Program>();
    ClassId C = P->defineClass("C");
    FieldId F = P->defineField(C, "f", Type::I64, false);
    MethodId M = P->defineMethod(C, "m", Type::I64, {Type::I64});
    FunctionBuilder B("C.m", Type::I64);
    Reg This = B.addArg(Type::Ref);
    Reg N = B.addArg(Type::I64);
    Reg Acc = B.newReg(Type::I64);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    B.move(Acc, Zero);
    if (InLoop) {
      Reg I = B.newReg(Type::I64);
      B.move(I, Zero);
      auto LHead = B.makeLabel();
      auto LDone = B.makeLabel();
      auto LSkip = B.makeLabel();
      B.bind(LHead);
      B.cbz(B.cmp(Opcode::CmpLT, I, N), LDone);
      Reg V = B.getField(This, F, Type::I64);
      B.cbz(V, LSkip);
      B.move(Acc, B.add(Acc, One));
      B.bind(LSkip);
      B.move(I, B.add(I, One));
      B.br(LHead);
      B.bind(LDone);
    } else {
      Reg V = B.getField(This, F, Type::I64);
      auto LSkip = B.makeLabel();
      B.cbz(V, LSkip);
      B.move(Acc, B.add(Acc, One));
      B.bind(LSkip);
    }
    B.ret(Acc);
    P->setBody(M, B.finalize());
    P->link();
    return std::pair{std::move(P), std::pair{M, F}};
  };
  auto [PLoop, IdsLoop] = Build(true);
  auto [PFlat, IdsFlat] = Build(false);
  auto Score = [&](Program &P, MethodId M, FieldId F) {
    HotMethodProfile Prof = profileWith(P, {{M, 0.5}});
    auto Res = analyzeStateFields(P, Prof);
    for (auto &CS : Res)
      for (auto &Cand : CS.Candidates)
        if (Cand.Field == F)
          return Cand.Score;
    return 0.0;
  };
  EXPECT_GT(Score(*PLoop, IdsLoop.first, IdsLoop.second),
            Score(*PFlat, IdsFlat.first, IdsFlat.second));
}

// --- Value profiler ------------------------------------------------------

TEST(ValueProfiler, MinesJointHotStates) {
  CounterFixture Fx;
  std::vector<ClassStateFields> Cands(1);
  Cands[0].Cls = Fx.Counter;
  Cands[0].Candidates = {{Fx.Mode, 1.0}};
  auto VP = observeCandidates(*Fx.P, Cands);
  EXPECT_TRUE(Fx.P->field(Fx.Mode).IsObserved);
  EXPECT_FALSE(Fx.P->field(Fx.Mode).IsStateField);

  VMOptions Opts;
  Opts.EnableMutation = false;
  VirtualMachine VM(*Fx.P, Opts);
  VM.setStateObserver(VP.get());
  // 6 counters in mode 0, 3 in mode 1, 1 in mode 7.
  for (int I = 0; I < 6; ++I)
    Fx.makeCounter(VM, 0);
  for (int I = 0; I < 3; ++I)
    Fx.makeCounter(VM, 1);
  Fx.makeCounter(VM, 7);

  auto Mined = VP->mine(Cands, 0.15, 8);
  ASSERT_EQ(Mined.size(), 1u);
  ASSERT_EQ(Mined[0].Hot.size(), 2u); // mode 7 is below 15%
  EXPECT_EQ(Mined[0].Hot[0].InstanceVals[0].I, 0);
  EXPECT_EQ(Mined[0].Hot[1].InstanceVals[0].I, 1);
  EXPECT_GT(Mined[0].Hot[0].Weight, Mined[0].Hot[1].Weight);
}

TEST(ValueProfiler, MaxStatesCapApplies) {
  CounterFixture Fx;
  std::vector<ClassStateFields> Cands(1);
  Cands[0].Cls = Fx.Counter;
  Cands[0].Candidates = {{Fx.Mode, 1.0}};
  auto VP = observeCandidates(*Fx.P, Cands);
  VMOptions Opts;
  Opts.EnableMutation = false;
  VirtualMachine VM(*Fx.P, Opts);
  VM.setStateObserver(VP.get());
  for (int M = 0; M < 6; ++M)
    Fx.makeCounter(VM, M); // six equally common states
  auto Mined = VP->mine(Cands, 0.01, 3);
  ASSERT_EQ(Mined.size(), 1u);
  EXPECT_EQ(Mined[0].Hot.size(), 3u);
}

TEST(ValueProfiler, RuntimeTransitionsAreSampled) {
  CounterFixture Fx;
  std::vector<ClassStateFields> Cands(1);
  Cands[0].Cls = Fx.Counter;
  Cands[0].Candidates = {{Fx.Mode, 1.0}};
  auto VP = observeCandidates(*Fx.P, Cands);
  VMOptions Opts;
  Opts.EnableMutation = false;
  VirtualMachine VM(*Fx.P, Opts);
  VM.setStateObserver(VP.get());
  Object *O = Fx.makeCounter(VM, 0);
  for (int I = 0; I < 20; ++I)
    VM.call(Fx.SetMode, {valueR(O), valueI(3)}); // run-time variant behavior
  auto Mined = VP->mine(Cands, 0.5, 4);
  ASSERT_EQ(Mined.size(), 1u);
  EXPECT_EQ(Mined[0].Hot[0].InstanceVals[0].I, 3);
}

// --- OLC analysis ----------------------------------------------------------

/// Builds the paper's Figure 7 shape: Screen{rows=24,cols=80 in ctor},
/// Tx{private screen = new Screen()}. Knobs inject each rejection reason.
struct OlcProgram {
  std::unique_ptr<Program> P = std::make_unique<Program>();
  ClassId Screen, Tx;
  FieldId Rows, Cols, ScreenRef;
  MethodId ScrCtor, Use, TxCtor;
  MutationPlan Plan;

  enum Knob {
    Clean,
    NonConstCtorAssign,   // rows = ctor argument
    AssignOutsideCtor,    // a method writes rows
    EscapeViaReturn,      // screen returned from a method
    EscapeViaArgument,    // screen passed as a non-receiver argument
    EscapeViaStore,       // screen stored into another field
    PublicRefField,       // the ref field is not private
  };

  explicit OlcProgram(Knob K) {
    Screen = P->defineClass("Screen");
    Rows = P->defineField(Screen, "rows", Type::I64, false, Access::Package);
    Cols = P->defineField(Screen, "cols", Type::I64, false, Access::Package);
    std::vector<Type> CtorParams;
    if (K == NonConstCtorAssign)
      CtorParams.push_back(Type::I64);
    ScrCtor = P->defineMethod(Screen, "<init>", Type::Void, CtorParams,
                              {.IsCtor = true});
    {
      FunctionBuilder B("Screen.<init>", Type::Void);
      Reg This = B.addArg(Type::Ref);
      Reg RowsV;
      if (K == NonConstCtorAssign)
        RowsV = B.addArg(Type::I64);
      else
        RowsV = B.constI(24);
      B.putField(This, Rows, RowsV);
      Reg C80 = B.constI(80);
      B.putField(This, Cols, C80);
      B.retVoid();
      P->setBody(ScrCtor, B.finalize());
    }
    Use = P->defineMethod(Screen, "use", Type::I64, {});
    {
      FunctionBuilder B("Screen.use", Type::I64);
      Reg This = B.addArg(Type::Ref);
      Reg R = B.getField(This, Rows, Type::I64);
      auto L = B.makeLabel();
      B.cbz(R, L);
      B.bind(L);
      if (K == AssignOutsideCtor) {
        Reg C9 = B.constI(9);
        B.putField(This, Rows, C9);
      }
      B.ret(R);
      P->setBody(Use, B.finalize());
    }

    Tx = P->defineClass("Tx");
    ScreenRef = P->defineField(Tx, "screen", Type::Ref, false,
                               K == PublicRefField ? Access::Public
                                                   : Access::Private);
    TxCtor = P->defineMethod(Tx, "<init>", Type::Void, {}, {.IsCtor = true});
    {
      FunctionBuilder B("Tx.<init>", Type::Void);
      Reg This = B.addArg(Type::Ref);
      Reg S = B.newObject(Screen);
      if (K == NonConstCtorAssign) {
        Reg C24 = B.constI(24);
        B.callSpecial(ScrCtor, {S, C24}, Type::Void);
      } else {
        B.callSpecial(ScrCtor, {S}, Type::Void);
      }
      B.putField(This, ScreenRef, S);
      B.retVoid();
      P->setBody(TxCtor, B.finalize());
    }
    // A consumer method loading the ref field, with the chosen escape.
    FieldId Leak = P->defineField(Tx, "leak", Type::Ref, false);
    MethodId Consume = P->defineMethod(
        Tx, "consume", Type::Ref,
        K == EscapeViaArgument ? std::vector<Type>{Type::Ref}
                               : std::vector<Type>{});
    {
      FunctionBuilder B("Tx.consume", Type::Ref);
      Reg This = B.addArg(Type::Ref);
      if (K == EscapeViaArgument)
        B.addArg(Type::Ref);
      Reg S = B.getField(This, ScreenRef, Type::Ref);
      B.callVirtual(Use, {S}, Type::I64); // receiver use: always fine
      if (K == EscapeViaStore)
        B.putField(This, Leak, S);
      if (K == EscapeViaReturn) {
        B.ret(S);
      } else {
        Reg Null = B.constNull();
        B.ret(Null);
      }
      P->setBody(Consume, B.finalize());
    }
    if (K == EscapeViaArgument) {
      // A second consumer passes the field as a non-receiver argument.
      MethodId Helper = P->defineMethod(Tx, "helper", Type::Void,
                                        {Type::Ref}, {.IsStatic = true});
      {
        FunctionBuilder B("Tx.helper", Type::Void);
        B.addArg(Type::Ref);
        B.retVoid();
        P->setBody(Helper, B.finalize());
      }
      MethodId Consume2 = P->defineMethod(Tx, "consume2", Type::Void, {});
      {
        FunctionBuilder B("Tx.consume2", Type::Void);
        Reg This = B.addArg(Type::Ref);
        Reg S = B.getField(This, ScreenRef, Type::Ref);
        B.callStatic(Helper, {S}, Type::Void); // escape
        B.retVoid();
        P->setBody(Consume2, B.finalize());
      }
    }
    P->link();

    MutableClassPlan CP;
    CP.Cls = Screen;
    CP.InstanceStateFields = {Rows, Cols};
    HotState S;
    S.InstanceVals = {valueI(24), valueI(80)};
    CP.HotStates = {S};
    CP.MutableMethods = {Use};
    Plan.Classes.push_back(CP);
  }
};

TEST(OlcAnalysis, ProvesFigure7Constants) {
  OlcProgram Pr(OlcProgram::Clean);
  OlcDatabase Db = analyzeObjectLifetimeConstants(*Pr.P, Pr.Plan);
  ASSERT_EQ(Db.Entries.size(), 1u);
  const OlcEntry &E = Db.Entries[0];
  EXPECT_EQ(E.RefField, Pr.ScreenRef);
  EXPECT_EQ(E.TargetClass, Pr.Screen);
  EXPECT_EQ(E.Ctor, Pr.ScrCtor);
  ASSERT_EQ(E.Constants.size(), 2u);
  int64_t RowsV = 0, ColsV = 0;
  for (const OlcConstant &C : E.Constants) {
    if (C.TargetField == Pr.Rows)
      RowsV = C.V.I;
    if (C.TargetField == Pr.Cols)
      ColsV = C.V.I;
  }
  EXPECT_EQ(RowsV, 24);
  EXPECT_EQ(ColsV, 80);
}

TEST(OlcAnalysis, RejectsNonConstCtorAssignment) {
  OlcProgram Pr(OlcProgram::NonConstCtorAssign);
  OlcDatabase Db = analyzeObjectLifetimeConstants(*Pr.P, Pr.Plan);
  // rows came from an argument: only cols can be proven.
  ASSERT_EQ(Db.Entries.size(), 1u);
  ASSERT_EQ(Db.Entries[0].Constants.size(), 1u);
  EXPECT_EQ(Db.Entries[0].Constants[0].TargetField, Pr.Cols);
}

TEST(OlcAnalysis, RejectsAssignmentOutsideCtor) {
  OlcProgram Pr(OlcProgram::AssignOutsideCtor);
  OlcDatabase Db = analyzeObjectLifetimeConstants(*Pr.P, Pr.Plan);
  for (const OlcEntry &E : Db.Entries)
    for (const OlcConstant &C : E.Constants)
      EXPECT_NE(C.TargetField, Pr.Rows); // rows reassigned in use()
}

TEST(OlcAnalysis, RejectsEscapeViaReturn) {
  OlcProgram Pr(OlcProgram::EscapeViaReturn);
  OlcDatabase Db = analyzeObjectLifetimeConstants(*Pr.P, Pr.Plan);
  EXPECT_TRUE(Db.Entries.empty());
}

TEST(OlcAnalysis, RejectsEscapeViaArgument) {
  OlcProgram Pr(OlcProgram::EscapeViaArgument);
  OlcDatabase Db = analyzeObjectLifetimeConstants(*Pr.P, Pr.Plan);
  EXPECT_TRUE(Db.Entries.empty());
}

TEST(OlcAnalysis, RejectsEscapeViaStore) {
  OlcProgram Pr(OlcProgram::EscapeViaStore);
  OlcDatabase Db = analyzeObjectLifetimeConstants(*Pr.P, Pr.Plan);
  EXPECT_TRUE(Db.Entries.empty());
}

TEST(OlcAnalysis, RejectsPublicRefField) {
  OlcProgram Pr(OlcProgram::PublicRefField);
  OlcDatabase Db = analyzeObjectLifetimeConstants(*Pr.P, Pr.Plan);
  EXPECT_TRUE(Db.Entries.empty());
}

TEST(OlcAnalysis, ScopedToMutableClasses) {
  OlcProgram Pr(OlcProgram::Clean);
  MutationPlan Empty;
  OlcDatabase Db = analyzeObjectLifetimeConstants(*Pr.P, Empty);
  EXPECT_TRUE(Db.Entries.empty());
}

TEST(OlcAnalysis, PlanInstallReachesSpecializationInlining) {
  // runMvm attaches no database itself: installing the text's plan does,
  // so Tx.run's optimized body inlines Screen.area through Tx.screen with
  // rows and cols substituted, and prints what the unmutated run prints.
  std::ifstream In(DCHM_TEST_DATA "/olc.mvm");
  const std::string Source(std::istreambuf_iterator<char>(In), {});
  MvmRunConfig Cfg;
  MvmRunResult Off = runMvm(Source, Cfg);
  Cfg.Mutate = true;
  Cfg.AuditStride = 1;
  MvmRunResult On = runMvm(Source, Cfg);
  ASSERT_TRUE(Off.ok()) << Off.Error;
  ASSERT_EQ(On.failure("mutation on"), "");
  EXPECT_EQ(Off.Metrics.Inlining.SpecializationInlines, 0u);
  EXPECT_GT(On.Metrics.Inlining.SpecializationInlines, 0u);
  EXPECT_EQ(On.Output, Off.Output);
  EXPECT_EQ(On.Output, "3840000"); // 2000 runs of 24 * 80
}

// --- Offline pipeline end-to-end ---------------------------------------------

TEST(OfflinePipeline, DerivesSalaryDbPlan) {
  auto W = makeSalaryDb();
  OfflineConfig Cfg;
  OfflineResult R = runOfflinePipeline(*W, Cfg);
  ASSERT_EQ(R.Plan.Classes.size(), 1u);
  const MutableClassPlan &CP = R.Plan.Classes[0];
  auto P = W->buildProgram();
  EXPECT_EQ(P->cls(CP.Cls).Name, "SalaryEmployee");
  ASSERT_EQ(CP.InstanceStateFields.size(), 1u);
  EXPECT_EQ(P->field(CP.InstanceStateFields[0]).Name, "grade");
  EXPECT_EQ(CP.HotStates.size(), 4u); // grades 0..3
  ASSERT_EQ(CP.MutableMethods.size(), 1u);
  EXPECT_EQ(P->method(CP.MutableMethods[0]).Name, "raise");
}

TEST(OfflinePipeline, FindsDisplayScreenInJbb) {
  auto W = makeJbb(JbbVariant::Jbb2000);
  OfflineConfig Cfg;
  OfflineResult R = runOfflinePipeline(*W, Cfg);
  auto P = W->buildProgram();
  const MutableClassPlan *Screen = nullptr;
  for (const MutableClassPlan &CP : R.Plan.Classes)
    if (P->cls(CP.Cls).Name == "DisplayScreen")
      Screen = &CP;
  ASSERT_NE(Screen, nullptr);
  EXPECT_EQ(Screen->HotStates.size(), 1u); // the (24, 80) state
  // And the OLC analysis proves rows/cols through the private screens.
  OlcDatabase Db = analyzeObjectLifetimeConstants(*P, R.Plan);
  EXPECT_GE(Db.Entries.size(), 2u); // deliveryScreen + paymentScreen
}

TEST(OfflinePipeline, ProfileIsDeterministic) {
  auto W = makeCsvToXml();
  OfflineConfig Cfg;
  Cfg.HotStateMinFraction = 0.10; // the threshold this test assumes
  OfflineResult R1 = runOfflinePipeline(*W, Cfg);
  OfflineResult R2 = runOfflinePipeline(*W, Cfg);
  ASSERT_EQ(R1.Plan.Classes.size(), R2.Plan.Classes.size());
  for (size_t I = 0; I < R1.Plan.Classes.size(); ++I) {
    EXPECT_EQ(R1.Plan.Classes[I].Cls, R2.Plan.Classes[I].Cls);
    EXPECT_EQ(R1.Plan.Classes[I].HotStates.size(),
              R2.Plan.Classes[I].HotStates.size());
  }
}

} // namespace
