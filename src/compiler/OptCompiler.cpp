//===-- compiler/OptCompiler.cpp - The MiniVM compiler ----------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "compiler/OptCompiler.h"

#include "compiler/Passes.h"
#include "compiler/Specializer.h"
#include "runtime/CostModel.h"
#include "support/Debug.h"

#include <cstdio>
#include <vector>

namespace dchm {

void OptCompiler::setOlcDatabase(const OlcDatabase *Db) {
  Olc = Db;
  SpecCache.clear();
}

void OptCompiler::setPlan(const MutationPlan *Pl) {
  Plan = Pl;
  SpecCache.clear();
}

CompiledMethod *OptCompiler::finish(MethodInfo &M, IRFunction Code, int Level,
                                    int StateIdx) {
  // Compile cost scales with the unit size the optimizer actually processes
  // (post-inlining instruction count), charged here in program order.
  size_t UnitSize = Code.Insts.size();
  uint64_t Cycles =
      StateIdx >= 0
          ? CompileCost::SpecialPerCompile + CompileCost::SpecialPerInst * UnitSize
          : CompileCost::PerCompile + CompileCost::perInst(Level) * UnitSize;

  if (Level >= 1)
    runOptPipeline(Code);
  Pipeline.Stats.InlineRuns++;
  M.CompiledVersions.push_back(std::make_unique<CompiledMethod>(
      M, std::move(Code), Level, StateIdx, Cycles));
  CompiledMethod *CM = M.CompiledVersions.back().get();
  // The budget charge is estimated from the pre-optimization unit size with
  // the codeBytes() density model; eviction decisions rank on it.
  CM->setBudgetBytes(32 + UnitSize * (Level == 0 ? 14 : 10));

  Stats.TotalCompileCycles += Cycles;
  Stats.TotalCodeBytes += CM->codeBytes();
  if (StateIdx >= 0) {
    Stats.SpecialCompileCycles += Cycles;
    Stats.SpecialCompiles++;
    Stats.SpecialCodeBytes += CM->codeBytes();
  } else {
    Stats.CompilesAtLevel[Level < 0 ? 0 : (Level > 2 ? 2 : Level)]++;
  }
  return CM;
}

CompiledMethod *OptCompiler::compileGeneral(MethodInfo &M, int Level) {
  DCHM_CHECK(M.HasBody, "compiling a method without a body");
  IRFunction Code = M.Bytecode;
  if (Level >= 2) {
    Inliner Inl(P, InlineCfg, Olc, Plan);
    InlineStats IS = Inl.run(Code, M);
    Stats.Inlining.SitesInlined += IS.SitesInlined;
    Stats.Inlining.SpecializationInlines += IS.SpecializationInlines;
    Stats.Inlining.TradeoffRejections += IS.TradeoffRejections;
    Stats.Inlining.InstsAdded += IS.InstsAdded;
  }
  CompiledMethod *CM = finish(M, std::move(Code), Level, -1);
  if (Level > M.CurOptLevel)
    M.CurOptLevel = Level;
  return CM;
}

CompiledMethod *OptCompiler::compileSpecial(MethodInfo &M, int Level,
                                            const MutableClassPlan &CP,
                                            size_t StateIdx) {
  DCHM_CHECK(M.HasBody, "compiling a method without a body");
  IRFunction Code = M.Bytecode;
  std::vector<ConsumedBinding> Consumed;
  specializeForState(Code, M, CP, StateIdx,
                     CacheEnabled ? &Consumed : nullptr);
  Stats.SpecialCompileRequests++;

  std::string Key;
  if (CacheEnabled) {
    // Content key: method + level + exactly the bindings the body consumed.
    // Fields the method never reads are excluded, so hot states that are
    // indistinguishable to this method collide — which is the point.
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "m%u|l%d", M.Id, Level);
    Key = Buf;
    for (const ConsumedBinding &B : Consumed) {
      std::snprintf(Buf, sizeof(Buf), "|f%u:%llx", B.Field,
                    static_cast<unsigned long long>(B.Bits));
      Key += Buf;
    }
    auto It = SpecCache.find(Key);
    if (It != SpecCache.end() && !It->second.CM->isInvalidated()) {
      // Identical consumed bindings mean an identical specialized body and
      // (since plan, OLC, and inliner config are fixed for the run)
      // identical post-inlining size, so charging from the cached unit size
      // reproduces a recompile's cycles bit-for-bit.
      uint64_t Cycles = CompileCost::SpecialPerCompile +
                        CompileCost::SpecialPerInst * It->second.UnitSize;
      Stats.TotalCompileCycles += Cycles;
      Stats.SpecialCompileCycles += Cycles;
      Stats.SpecialCacheHits++;
      Stats.SpecialCyclesSharedWork += Cycles;
      It->second.CM->addShare();
      return It->second.CM;
    }
  }

  if (Level >= 2) {
    Inliner Inl(P, InlineCfg, Olc, Plan);
    Inl.run(Code, M);
  }
  size_t UnitSize = Code.Insts.size();
  CompiledMethod *CM =
      finish(M, std::move(Code), Level, static_cast<int>(StateIdx));
  if (CacheEnabled)
    SpecCache[Key] = {CM, UnitSize};
  return CM;
}

} // namespace dchm
