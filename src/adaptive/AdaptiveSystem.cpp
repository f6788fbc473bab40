//===-- adaptive/AdaptiveSystem.cpp - Adaptive optimization ------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "adaptive/AdaptiveSystem.h"

#include "support/Debug.h"

namespace dchm {

CompiledMethod *AdaptiveSystem::ensureCompiled(MethodInfo &M) {
  if (M.General)
    return M.General;
  CompiledMethod *CM = OC.compileGeneral(M, 0);
  P.installCode(M, CM);
  Stats.InitialCompiles++;
  if (Cfg.AcceleratedMutableHotness && M.IsMutable) {
    // Figure 14: opt1 and opt2 code for mutable methods is generated
    // immediately after their opt0 code.
    recompile(M, 1);
    recompile(M, TopOptLevel);
  }
  return M.General;
}

bool AdaptiveSystem::sample(MethodInfo &M) {
  if (Cfg.SampleInterval > 1 &&
      (EventTick.fetch_add(1, std::memory_order_relaxed) + 1) %
              Cfg.SampleInterval !=
          0)
    return false;
  uint64_t Samples = M.SampleCount.fetch_add(1, std::memory_order_relaxed) + 1;
  int Level = M.CurOptLevel.load(std::memory_order_relaxed);
  return (Level == 0 && Samples >= Cfg.Opt1Threshold) ||
         (Level == 1 && Samples >= Cfg.Opt2Threshold);
}

void AdaptiveSystem::refreshMutableMethods() {
  const MutationPlan *Plan = P.mutationPlan();
  if (!Plan)
    return;
  for (const MutableClassPlan &CP : Plan->Classes)
    for (MethodId MId : CP.MutableMethods) {
      MethodInfo &M = P.method(MId);
      if (M.IsMutable && M.CurOptLevel >= TopOptLevel && M.Specials.empty())
        recompile(M, TopOptLevel);
    }
}

void AdaptiveSystem::promote(MethodInfo &M) {
  if (InRecompile)
    return; // no nested recompilation from compile-time sampling
  bool WantOpt1 = M.CurOptLevel == 0 && M.SampleCount >= Cfg.Opt1Threshold;
  bool WantOpt2 = M.CurOptLevel == 1 && M.SampleCount >= Cfg.Opt2Threshold;
  if (!WantOpt1 && !WantOpt2)
    return;
  recompile(M, WantOpt1 ? 1 : TopOptLevel);
}

void AdaptiveSystem::recompile(MethodInfo &M, int Level) {
  InRecompile = true;
  CompiledMethod *Old = M.General;
  CompiledMethod *CM = OC.compileGeneral(M, Level);
  if (Old)
    Old->invalidate();
  P.installCode(M, CM);
  Stats.Recompilations++;

  // "When a method is compiled at a high optimization level, the specialized
  // versions are generated at the same time" — mutation occurs at opt2.
  const MutationPlan *Plan = P.mutationPlan();
  if (Level >= TopOptLevel && M.IsMutable && Plan) {
    const MutableClassPlan *CP = Plan->planFor(M.Owner);
    DCHM_CHECK(CP, "mutable method without a class plan");
    for (CompiledMethod *OldSpecial : M.Specials)
      if (OldSpecial)
        OldSpecial->invalidate();
    // Built aside and swapped in whole, so no slot is ever null while a
    // plan is installed.
    std::vector<CompiledMethod *> Fresh;
    for (size_t S = 0; S < CP->HotStates.size(); ++S)
      Fresh.push_back(OC.compileSpecial(M, Level, *CP, S));
    M.Specials = std::move(Fresh);
    Listener.onMutableMethodRecompiled(M);
  }
  InRecompile = false;
}

} // namespace dchm
