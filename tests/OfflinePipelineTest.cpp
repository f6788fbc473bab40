//===-- tests/OfflinePipelineTest.cpp - One-run value profiling ---------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// The offline pipeline records the value profile during its hot-method run
/// and projects it onto EQ 1's candidates afterwards. These tests pin the
/// projection rules on a small program and check, on all seven workloads,
/// that the one run mines exactly what a second run observing only the
/// candidates (as state fields) samples, and that observing charges no
/// simulated cycles.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/OfflinePipeline.h"
#include "asm/Assembler.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace dchm;

namespace {

using Histogram = std::map<std::vector<int64_t>, uint64_t>;

/// The mined tuples of CS with their sample counts (MinFraction 0 keeps
/// every tuple, so the counts are the projected histogram).
Histogram countsOf(const ValueProfiler::ClassStates &CS) {
  Histogram H;
  for (const ValueProfiler::MinedState &MS : CS.Hot) {
    std::vector<int64_t> Tuple;
    for (Value V : MS.InstanceVals)
      Tuple.push_back(V.I);
    for (Value V : MS.StaticVals)
      Tuple.push_back(V.I);
    H[Tuple] = static_cast<uint64_t>(
        MS.Weight * static_cast<double>(CS.Samples) + 0.5);
  }
  return H;
}

// --- Projection rules on a small program -------------------------------------

/// Base declares mode, tag and the static epoch; Derived adds level and
/// extra and chains to Base's constructor; Global has only the static
/// phase; Other's constructor stores into another object.
constexpr const char *ProjectionProgram = R"(
class Base {
  field mode: i64
  field tag: i64
  field epoch: i64 static
  ctor <init>(%m: i64) {
    putfield %this, Base.mode, %m
    ret
  }
  method setMode(%m: i64) {
    putfield %this, Base.mode, %m
    ret
  }
  method setEpoch(%e: i64) static {
    putstatic Base.epoch, %e
    ret
  }
}
class Derived extends Base {
  field level: i64
  field extra: i64
  ctor <init>(%m: i64, %l: i64) {
    callspecial Base.<init>(%this, %m)
    putfield %this, Derived.level, %l
    ret
  }
  method setLevel(%l: i64) {
    putfield %this, Derived.level, %l
    ret
  }
}
class Other {
  ctor <init>(%target: ref) {
    %four = consti 4
    putfield %target, Base.tag, %four
    ret
  }
}
class Global {
  field phase: i64 static
  ctor <init>() {
    ret
  }
  method setPhase(%p: i64) static {
    putstatic Global.phase, %p
    ret
  }
}
class Main {
  method main() -> i64 static {
    %one = consti 1
    %two = consti 2
    %three = consti 3
    %d = new Derived
    callspecial Derived.<init>(%d, %one, %two)
    callvirtual Derived.setLevel(%d, %three)
    %five = consti 5
    putfield %d, Base.tag, %five
    %nine = consti 9
    putfield %d, Derived.extra, %nine
    %seven = consti 7
    callstatic Base.setEpoch(%seven)
    %four = consti 4
    callvirtual Derived.setLevel(%d, %four)
    %six = consti 6
    %b = new Base
    callspecial Base.<init>(%b, %six)
    %eight = consti 8
    callvirtual Base.setMode(%b, %eight)
    putfield %b, Base.tag, %two
    %o = new Other
    callspecial Other.<init>(%o, %b)
    %g = new Global
    callspecial Global.<init>(%g)
    callstatic Global.setPhase(%one)
    callstatic Global.setPhase(%one)
    %zero = consti 0
    ret %zero
  }
}
)";

class ValueProfilerProjection : public ::testing::Test {
protected:
  void SetUp() override {
    AssemblyResult A = assembleProgram(ProjectionProgram);
    ASSERT_TRUE(A.ok()) << A.Error;
    P = std::move(A.P);
    auto Cls = [&](const char *N) { return P->findClass(N); };
    auto Fld = [&](const char *C, const char *N) {
      return P->findField(Cls(C), N);
    };
    Base = Cls("Base");
    Derived = Cls("Derived");
    Global = Cls("Global");
    Mode = Fld("Base", "mode");
    Tag = Fld("Base", "tag");
    Epoch = Fld("Base", "epoch");
    Level = Fld("Derived", "level");
    Phase = Fld("Global", "phase");

    // Base profiles tag; Derived the inherited mode, its own level and the
    // inherited static epoch; Global its static phase only. Derived.extra
    // is observed but no class profiles it.
    Cands = {{Base, {{Tag, 1.0}}},
             {Derived, {{Mode, 3.0}, {Level, 2.0}, {Epoch, 1.0}}},
             {Global, {{Phase, 1.0}}}};
    std::vector<FieldId> Observed;
    for (size_t F = 0; F < P->numFields(); ++F)
      if (P->field(static_cast<FieldId>(F)).Ty != Type::Ref)
        Observed.push_back(static_cast<FieldId>(F));
    for (FieldId F : Observed)
      P->field(F).IsObserved = true;
    VP = std::make_unique<ValueProfiler>(*P, Observed);

    VMOptions Opts;
    Opts.EnableMutation = false;
    VirtualMachine VM(*P, Opts);
    VM.setStateObserver(VP.get());
    VM.call(P->findMethod(Cls("Main"), "main"), {});
    Mined = VP->mine(Cands, 0.0, 100);
  }

  const ValueProfiler::ClassStates *minedFor(ClassId C) const {
    for (const ValueProfiler::ClassStates &CS : Mined)
      if (CS.Cls == C)
        return &CS;
    return nullptr;
  }

  std::unique_ptr<Program> P;
  ClassId Base, Derived, Global;
  FieldId Mode, Tag, Epoch, Level, Phase;
  std::vector<ClassStateFields> Cands;
  std::unique_ptr<ValueProfiler> VP;
  std::vector<ValueProfiler::ClassStates> Mined;
};

TEST_F(ValueProfilerProjection, ClassesComeOutInCandidateOrder) {
  ASSERT_EQ(Mined.size(), 3u);
  EXPECT_EQ(Mined[0].Cls, Base);
  EXPECT_EQ(Mined[1].Cls, Derived);
  EXPECT_EQ(Mined[2].Cls, Global);
  EXPECT_EQ(Mined[1].InstanceFields, (std::vector<FieldId>{Mode, Level}));
  EXPECT_EQ(Mined[1].StaticFields, std::vector<FieldId>{Epoch});
}

TEST_F(ValueProfilerProjection, InheritedFieldsAndConstructorChain) {
  // (mode, level, epoch). Base.<init> exits for the Derived object before
  // Derived.<init> stores level: two samples per construction. The
  // constructors' stores to their own object are not events. setLevel
  // counts; so does the store to tag, which Base profiles; the store to
  // the observed but unprofiled extra does not; the static store to epoch
  // does not either (Derived has instance state), but the next sample
  // sees it.
  const ValueProfiler::ClassStates *CS = minedFor(Derived);
  ASSERT_NE(CS, nullptr);
  EXPECT_EQ(CS->Samples, 5u);
  EXPECT_EQ(countsOf(*CS), (Histogram{{{1, 0, 0}, 1},
                                      {{1, 2, 0}, 1},
                                      {{1, 3, 0}, 2},
                                      {{1, 4, 7}, 1}}));
}

TEST_F(ValueProfilerProjection, StoreToAnotherClassesFieldCounts) {
  // (tag). mode is Derived's profiled field, so setMode on a Base counts
  // for Base. The constructor exit samples tag 0; Other's constructor
  // stores into the Base object, not its own, so that store counts.
  const ValueProfiler::ClassStates *CS = minedFor(Base);
  ASSERT_NE(CS, nullptr);
  EXPECT_EQ(CS->Samples, 4u);
  EXPECT_EQ(countsOf(*CS), (Histogram{{{0}, 2}, {{2}, 1}, {{4}, 1}}));
}

TEST_F(ValueProfilerProjection, StaticOnlyClassSamplesItsStaticStores) {
  // (phase): the constructor exit, then two stores to phase. The store to
  // Base.epoch is not one of Global's fields.
  const ValueProfiler::ClassStates *CS = minedFor(Global);
  ASSERT_NE(CS, nullptr);
  EXPECT_EQ(CS->Samples, 3u);
  EXPECT_TRUE(CS->InstanceFields.empty());
  EXPECT_EQ(countsOf(*CS), (Histogram{{{0}, 1}, {{1}, 2}}));
}

TEST_F(ValueProfilerProjection, FewerCandidatesSeeFewerStores) {
  // Without Base's candidate, tag is nobody's profiled field: the two tag
  // stores on the Base object and the one on the Derived object stop
  // counting.
  std::vector<ClassStateFields> NoBase(Cands.begin() + 1, Cands.end());
  auto M = VP->mine(NoBase, 0.0, 100);
  ASSERT_EQ(M.size(), 2u);
  EXPECT_EQ(M[0].Cls, Derived);
  EXPECT_EQ(M[0].Samples, 4u);
  EXPECT_EQ(countsOf(M[0]), (Histogram{{{1, 0, 0}, 1},
                                       {{1, 2, 0}, 1},
                                       {{1, 3, 0}, 1},
                                       {{1, 4, 7}, 1}}));
}

// --- All seven workloads -------------------------------------------------------

/// The second run of the two-run pipeline, kept as the reference: it marks
/// each candidate class's top fields as state fields and samples the joint
/// tuple of a class's fields at every reported store on an object of that
/// exact class, at every constructor exit, and, for a class whose fields
/// are all static, at every store to one of them.
class TwoRunReference : public StateObserver {
public:
  TwoRunReference(Program &P, const std::vector<ClassStateFields> &Cands)
      : P(P) {
    for (const ClassStateFields &CSF : Cands) {
      PerClass PC;
      PC.Cls = CSF.Cls;
      for (size_t I = 0;
           I < std::min(ValueProfiler::MaxFieldsPerClass, CSF.Candidates.size());
           ++I) {
        FieldId F = CSF.Candidates[I].Field;
        (P.field(F).IsStatic ? PC.Stat : PC.Inst).push_back(F);
        P.field(F).IsStateField = true;
      }
      Classes.push_back(std::move(PC));
    }
  }

  void observeInstanceStore(Object *O, FieldInfo &) override {
    if (PerClass *PC = classOf(O))
      sample(O, *PC);
  }
  void observeStaticStore(FieldInfo &F) override {
    for (PerClass &PC : Classes)
      if (PC.Inst.empty() &&
          std::find(PC.Stat.begin(), PC.Stat.end(), F.Id) != PC.Stat.end())
        sample(nullptr, PC);
  }
  void observeConstructorExit(Object *O, MethodInfo &) override {
    if (PerClass *PC = O ? classOf(O) : nullptr)
      sample(O, *PC);
  }

  /// Ranks each class's tuples as the pipeline does: heaviest first, at
  /// least MinFraction of the samples, at most MaxStates.
  std::vector<ValueProfiler::ClassStates> mine(double MinFraction,
                                               size_t MaxStates) const {
    std::vector<ValueProfiler::ClassStates> Out;
    for (const PerClass &PC : Classes) {
      if (PC.Samples == 0)
        continue;
      ValueProfiler::ClassStates CS;
      CS.Cls = PC.Cls;
      CS.InstanceFields = PC.Inst;
      CS.StaticFields = PC.Stat;
      CS.Samples = PC.Samples;
      std::vector<std::pair<const std::vector<int64_t> *, uint64_t>> Ranked;
      for (auto &[Tuple, Count] : PC.Hist)
        Ranked.emplace_back(&Tuple, Count);
      std::sort(Ranked.begin(), Ranked.end(),
                [](auto &A, auto &B) { return A.second > B.second; });
      for (auto &[Tuple, Count] : Ranked) {
        double Share =
            static_cast<double>(Count) / static_cast<double>(PC.Samples);
        if (Share < MinFraction || CS.Hot.size() >= MaxStates)
          break;
        ValueProfiler::MinedState MS;
        MS.Weight = Share;
        for (size_t I = 0; I < Tuple->size(); ++I)
          (I < PC.Inst.size() ? MS.InstanceVals : MS.StaticVals)
              .push_back(valueI((*Tuple)[I]));
        CS.Hot.push_back(std::move(MS));
      }
      if (!CS.Hot.empty())
        Out.push_back(std::move(CS));
    }
    return Out;
  }

private:
  struct PerClass {
    ClassId Cls = NoClassId;
    std::vector<FieldId> Inst, Stat;
    Histogram Hist;
    uint64_t Samples = 0;
  };

  PerClass *classOf(Object *O) {
    for (PerClass &PC : Classes)
      if (PC.Cls == O->tib()->Cls->Id)
        return &PC;
    return nullptr;
  }
  void sample(Object *O, PerClass &PC) {
    std::vector<int64_t> Tuple;
    for (FieldId F : PC.Inst)
      Tuple.push_back(O->get(P.field(F).Slot).I);
    for (FieldId F : PC.Stat)
      Tuple.push_back(P.getStaticSlot(P.field(F).Slot).I);
    PC.Hist[Tuple]++;
    PC.Samples++;
  }

  Program &P;
  std::vector<PerClass> Classes;
};

class OfflinePipelineOneRun : public ::testing::TestWithParam<int> {
protected:
  std::unique_ptr<Workload> W =
      std::move(makeAllWorkloads()[static_cast<size_t>(GetParam())]);
};

TEST_P(OfflinePipelineOneRun, MinesWhatASecondRunSamples) {
  OfflineConfig Cfg;
  OfflineResult R = runOfflinePipeline(*W, Cfg);
  ASSERT_FALSE(R.Candidates.empty());

  std::unique_ptr<Program> P = W->buildProgram();
  TwoRunReference Ref(*P, R.Candidates);
  {
    VMOptions Opts;
    Opts.EnableMutation = false;
    VirtualMachine VM(*P, Opts);
    VM.setStateObserver(&Ref);
    W->driveProfile(VM);
  }
  auto Want = Ref.mine(Cfg.HotStateMinFraction, MaxHotStates);

  ASSERT_EQ(R.Mined.size(), Want.size());
  ASSERT_FALSE(Want.empty());
  for (size_t C = 0; C < Want.size(); ++C) {
    const ValueProfiler::ClassStates &Got = R.Mined[C], &Exp = Want[C];
    SCOPED_TRACE(P->cls(Exp.Cls).Name);
    EXPECT_EQ(Got.Cls, Exp.Cls);
    EXPECT_EQ(Got.InstanceFields, Exp.InstanceFields);
    EXPECT_EQ(Got.StaticFields, Exp.StaticFields);
    EXPECT_EQ(Got.Samples, Exp.Samples);
    ASSERT_EQ(Got.Hot.size(), Exp.Hot.size());
    for (size_t S = 0; S < Exp.Hot.size(); ++S) {
      EXPECT_EQ(Got.Hot[S].Weight, Exp.Hot[S].Weight);
      ASSERT_EQ(Got.Hot[S].InstanceVals.size(), Exp.Hot[S].InstanceVals.size());
      ASSERT_EQ(Got.Hot[S].StaticVals.size(), Exp.Hot[S].StaticVals.size());
      for (size_t I = 0; I < Exp.Hot[S].InstanceVals.size(); ++I)
        EXPECT_EQ(Got.Hot[S].InstanceVals[I].I, Exp.Hot[S].InstanceVals[I].I);
      for (size_t I = 0; I < Exp.Hot[S].StaticVals.size(); ++I)
        EXPECT_EQ(Got.Hot[S].StaticVals[I].I, Exp.Hot[S].StaticVals[I].I);
    }
  }
}

TEST_P(OfflinePipelineOneRun, ObservingChargesNothing) {
  struct Run {
    uint64_t Cycles, Insts;
    std::vector<uint64_t> MethodCycles;
  };
  auto Drive = [&](bool Observe) {
    std::unique_ptr<Program> P = W->buildProgram();
    std::vector<FieldId> Observed = branchTestedFields(*P);
    for (FieldId F : Observed)
      P->field(F).IsObserved = Observe;
    ValueProfiler VP(*P, Observed);
    VMOptions Opts;
    Opts.EnableMutation = false;
    VirtualMachine VM(*P, Opts);
    VM.interp().setProfiling(true);
    if (Observe)
      VM.setStateObserver(&VP);
    W->driveProfile(VM);
    return Run{VM.totalCycles(), VM.metrics().Insts,
               VM.interp().methodCycles()};
  };
  Run Plain = Drive(false), Observed = Drive(true);
  EXPECT_EQ(Observed.Cycles, Plain.Cycles);
  EXPECT_EQ(Observed.Insts, Plain.Insts);
  EXPECT_EQ(Observed.MethodCycles, Plain.MethodCycles);
}

INSTANTIATE_TEST_SUITE_P(AllSeven, OfflinePipelineOneRun,
                         ::testing::Range(0, 7),
                         [](const ::testing::TestParamInfo<int> &I) {
                           return makeAllWorkloads()[static_cast<size_t>(
                                                         I.param)]
                               ->name();
                         });

} // namespace
