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
    recompile(M, 2);
  }
  return M.General;
}

void AdaptiveSystem::onMethodEntry(MethodInfo &M) {
  if (Cfg.SampleInterval > 1 && (++EventTick % Cfg.SampleInterval) != 0)
    return;
  M.SampleCount++;
  maybePromote(M);
}

void AdaptiveSystem::onBackedge(MethodInfo &M) {
  if (Cfg.SampleInterval > 1 && (++EventTick % Cfg.SampleInterval) != 0)
    return;
  M.SampleCount++;
  maybePromote(M);
}

bool AdaptiveSystem::sampleConcurrent(MethodInfo &M) {
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
  if (!Plan)
    return;
  for (const MutableClassPlan &CP : Plan->Classes)
    for (MethodId MId : CP.MutableMethods) {
      MethodInfo &M = P.method(MId);
      if (M.IsMutable && M.CurOptLevel >= 2 && M.Specials.empty())
        recompile(M, 2);
    }
}

void AdaptiveSystem::maybePromote(MethodInfo &M) {
  if (InRecompile)
    return; // no nested recompilation from compile-time sampling
  bool WantOpt1 = M.CurOptLevel == 0 && M.SampleCount >= Cfg.Opt1Threshold;
  bool WantOpt2 = M.CurOptLevel == 1 && M.SampleCount >= Cfg.Opt2Threshold;
  if (!WantOpt1 && !WantOpt2)
    return;
  recompile(M, WantOpt1 ? 1 : 2);
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
  if (Level >= 2 && M.IsMutable && Plan) {
    const MutableClassPlan *CP = Plan->planFor(M.Owner);
    DCHM_CHECK(CP, "mutable method without a class plan");
    for (CompiledMethod *OldSpecial : M.Specials)
      if (OldSpecial)
        OldSpecial->invalidate();
    M.Specials.assign(CP->HotStates.size(), nullptr);
    const ClassInfo &Owner = P.cls(CP->Cls);
    for (size_t S = 0; S < CP->HotStates.size(); ++S) {
      // A hot state evicted under the code budget has no special TIB left
      // to dispatch through; compiling its special would only re-grow the
      // footprint the eviction just reclaimed.
      if (CP->dependsOnInstanceFields() && S < Owner.SpecialTibs.size() &&
          !Owner.SpecialTibs[S])
        continue;
      M.Specials[S] = OC.compileSpecial(M, Level, *CP, S);
    }
    if (Listener)
      Listener->onMutableMethodRecompiled(M);
  }
  InRecompile = false;
}

} // namespace dchm
