//===-- compiler/OptCompiler.cpp - The MiniVM compiler ----------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "compiler/OptCompiler.h"

#include "compiler/Passes.h"
#include "compiler/Specializer.h"
#include "ir/Verifier.h"
#include "runtime/CostModel.h"
#include "runtime/DecodedBody.h"
#include "support/Debug.h"

#include <cstdio>
#include <vector>

namespace dchm {

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
  // Link verifies only bytecode. With the consistency auditor on, the
  // optimized body is verified too. Decoding always checks what the
  // threaded loop relies on: a Br/Ret at the end, branch targets in range.
  auto Fail = [&](const std::string &Why) {
    char State[32];
    std::snprintf(State, sizeof(State), "special state %d", StateIdx);
    reportFatalErrorf("compiled body of '%s.%s' (opt%d, %s) is malformed: %s",
                      P.cls(M.Owner).Name.c_str(), M.Name.c_str(), Level,
                      StateIdx >= 0 ? State : "general", Why.c_str());
  };
  if (VerifyBodies)
    if (std::string Err = verifyFunction(Code); !Err.empty())
      Fail(Err);
  if (VMError Err = decodeBody(Code))
    Fail(Err.message());
  M.CompiledVersions.push_back(
      std::make_unique<CompiledMethod>(M, std::move(Code), Level, StateIdx));
  CompiledMethod *CM = M.CompiledVersions.back().get();

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
    Inliner Inl(P, InlineCfg, Olc, P.mutationPlan());
    Stats.Inlining += Inl.run(Code, M);
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
  specializeForState(Code, CP, StateIdx);
  Stats.SpecialCompileRequests++;
  if (Level >= 2) {
    Inliner Inl(P, InlineCfg, Olc, P.mutationPlan());
    Inl.run(Code, M);
  }
  return finish(M, std::move(Code), Level, static_cast<int>(StateIdx));
}

} // namespace dchm
