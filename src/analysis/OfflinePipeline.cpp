//===-- analysis/OfflinePipeline.cpp - The Figure 3 pipeline ------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "analysis/OfflinePipeline.h"

#include <algorithm>

namespace dchm {

OfflineResult runOfflinePipeline(ProgramSource &Source,
                                 const OfflineConfig &Cfg) {
  OfflineResult R;
  std::unique_ptr<Program> P = Source.buildProgram();

  // One drive serves both profiling steps: the hot-method profile (the
  // VTune stand-in) and the value profile of every field EQ 1 could pick,
  // observed for free so the cycle attribution is that of an unobserved
  // run.
  std::vector<FieldId> Observed = branchTestedFields(*P);
  for (FieldId F : Observed)
    P->field(F).IsObserved = true;
  ValueProfiler VP(*P, Observed);
  {
    VMOptions Opts;
    Opts.EnableMutation = false;
    VirtualMachine VM(*P, Opts);
    VM.interp().setProfiling(true);
    VM.setStateObserver(&VP);
    Source.driveProfile(VM);
    R.Profile = HotMethodProfile::fromInterpreter(VM.interp(), *P);
  }

  // --- Static analysis: EQ 1 state-field scoring. --------------------------
  R.Candidates = analyzeStateFields(*P, R.Profile);
  if (R.Candidates.empty())
    return R;

  // --- Hot states: the value profile projected onto the candidates. --------
  R.Mined = VP.mine(R.Candidates, Cfg.HotStateMinFraction, MaxHotStates);
  R.Plan = assembleMutationPlan(*P, R.Profile, R.Mined);
  return R;
}

MutationPlan assembleMutationPlan(
    const Program &P, const HotMethodProfile &Profile,
    const std::vector<ValueProfiler::ClassStates> &Mined) {
  MutationPlan Plan;
  for (const ValueProfiler::ClassStates &CS : Mined) {
    MutableClassPlan CP;
    CP.Cls = CS.Cls;
    CP.InstanceStateFields = CS.InstanceFields;
    CP.StaticStateFields = CS.StaticFields;
    for (const ValueProfiler::MinedState &MS : CS.Hot) {
      HotState HS;
      HS.InstanceVals = MS.InstanceVals;
      HS.StaticVals = MS.StaticVals;
      HS.Weight = MS.Weight;
      CP.HotStates.push_back(std::move(HS));
    }

    // Mutable methods: hot methods *declared by* the class that read at
    // least one of its state fields.
    const ClassInfo &C = P.cls(CS.Cls);
    for (MethodId MId : C.Methods) {
      const MethodInfo &M = P.method(MId);
      if (!M.HasBody || M.Flags.IsCtor)
        continue;
      if (Profile.hotness(MId) < MutableMethodHotness)
        continue;
      bool ReadsState = false;
      for (const Instruction &I : M.Bytecode.Insts) {
        if (I.Op != Opcode::GetField && I.Op != Opcode::GetStatic)
          continue;
        FieldId F = static_cast<FieldId>(I.Imm);
        bool IsState =
            std::find(CP.InstanceStateFields.begin(),
                      CP.InstanceStateFields.end(),
                      F) != CP.InstanceStateFields.end() ||
            std::find(CP.StaticStateFields.begin(), CP.StaticStateFields.end(),
                      F) != CP.StaticStateFields.end();
        if (IsState) {
          ReadsState = true;
          break;
        }
      }
      if (ReadsState)
        CP.MutableMethods.push_back(MId);
    }
    if (!CP.MutableMethods.empty() && !CP.HotStates.empty())
      Plan.Classes.push_back(std::move(CP));
  }
  return Plan;
}

} // namespace dchm
