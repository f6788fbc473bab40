//===-- analysis/OfflinePipeline.cpp - The Figure 3 pipeline ------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "analysis/OfflinePipeline.h"

#include "support/Debug.h"

#include <algorithm>

namespace dchm {

OfflineResult runOfflinePipeline(ProgramSource &Source,
                                 const OfflineConfig &Cfg) {
  OfflineResult R;

  // --- Run 1: hot methods (the VTune stand-in). ---------------------------
  std::unique_ptr<Program> P1 = Source.buildProgram();
  {
    VMOptions Opts;
    Opts.EnableMutation = false;
    VirtualMachine VM(*P1, Opts);
    VM.interp().setProfiling(true);
    Source.driveProfile(VM);
    R.Profile = HotMethodProfile::fromInterpreter(VM.interp(), *P1);
  }

  // --- Static analysis: EQ 1 state-field scoring. --------------------------
  R.Candidates = analyzeStateFields(*P1, R.Profile);
  if (R.Candidates.empty())
    return R;

  // --- Run 2: joint value profiling of the candidate fields. ---------------
  std::unique_ptr<Program> P2 = Source.buildProgram();
  DCHM_CHECK(P2->numMethods() == P1->numMethods() &&
                 P2->numFields() == P1->numFields(),
             "ProgramSource is not deterministic");
  ValueProfiler VP(*P2, R.Candidates);
  VP.prepare();
  {
    VMOptions Opts;
    Opts.EnableMutation = false;
    VirtualMachine VM(*P2, Opts);
    VM.setStateObserver(&VP);
    Source.driveProfile(VM);
  }
  auto Mined = VP.mine(Cfg.HotStateMinFraction, MaxHotStates);
  R.Plan = assembleMutationPlan(*P1, R.Profile, Mined);
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
