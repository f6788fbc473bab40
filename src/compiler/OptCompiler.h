//===-- compiler/OptCompiler.h - The MiniVM compiler ----------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-only execution model of Jikes, in miniature. Methods are
/// compiled at opt0 (a direct bytecode translation) on first invocation and
/// recompiled at opt1/opt2 when hot. opt1 runs the scalar pipeline; opt2
/// additionally inlines. Mutable methods recompiled at opt2 also get one
/// specialized compiled version per hot state (the Specializer substitutes
/// state-field constants and the pipeline collapses the residue).
/// Compile-cycle and code-byte accounting feeds Figures 10 and 11.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_COMPILER_OPTCOMPILER_H
#define DCHM_COMPILER_OPTCOMPILER_H

#include "compiler/CompilePipeline.h"
#include "compiler/Inliner.h"
#include "compiler/Olc.h"
#include "mutation/MutationPlan.h"
#include "runtime/CompiledMethod.h"
#include "runtime/Program.h"

#include <string>
#include <unordered_map>

namespace dchm {

/// Cumulative compiler activity over a run.
///
/// The cycle fields are part of the simulated machine and are charged
/// deterministically at request time, in program order: the specialization
/// cache changes wall time, compile counts, and code bytes, never cycles.
struct CompilerStats {
  uint64_t TotalCompileCycles = 0;
  uint64_t SpecialCompileCycles = 0; ///< spent on specialized versions only
  size_t TotalCodeBytes = 0;         ///< all compiled code ever generated
  size_t SpecialCodeBytes = 0;       ///< specialized versions only
  unsigned CompilesAtLevel[3] = {0, 0, 0};
  unsigned SpecialCompiles = 0; ///< specialized bodies actually compiled
  /// Specialized versions requested (compiles + cache hits). With the cache
  /// off this equals SpecialCompiles.
  unsigned SpecialCompileRequests = 0;
  /// Requests served by the content-keyed specialization cache: another hot
  /// state was indistinguishable to the method, so its CompiledMethod is
  /// shared across Specials slots.
  unsigned SpecialCacheHits = 0;
  /// Counterfactual: modeled cycles a hit *would* have cost to recompile.
  /// Diagnostic only — the same cycles are still charged on hits so that
  /// simulated time is bit-identical with the cache off.
  uint64_t SpecialCyclesSharedWork = 0;
  InlineStats Inlining;
};

/// Compiles MethodInfo bytecode into CompiledMethod artifacts.
///
/// Every compile runs to completion on the calling thread: bytecode copy,
/// specialization, inlining, modeled-cost charging, the optimization
/// pipeline, and the finished body all exist before compileGeneral /
/// compileSpecial return. See docs/compile_pipeline.md.
class OptCompiler {
public:
  explicit OptCompiler(Program &P) : P(P) {}

  InlinerConfig &inlinerConfig() { return InlineCfg; }
  /// Wires in OLC analysis results (enables specialization inlining).
  /// Invalidates the specialization cache: inlining decisions feed it.
  void setOlcDatabase(const OlcDatabase *Db);
  /// Wires in the mutation plan (enables the trade-off heuristic and
  /// specialized compilation). Invalidates the specialization cache.
  void setPlan(const MutationPlan *Pl);

  /// Turns the specialization cache on or off. Off by default — the seed
  /// behavior — for standalone OptCompiler users (tests, analysis tools);
  /// the VM hands in the value it resolved from VMOptions and the
  /// environment. Never reads the environment itself.
  void setSpecializationCache(bool On) { CacheEnabled = On; }

  /// Runs the IR verifier on every finished (optimized) body and aborts
  /// with a diagnostic naming the method, level and state on a violation.
  /// Off by default; the VM turns it on with the consistency auditor.
  void setVerifyBodies(bool On) { VerifyBodies = On; }

  /// Compiles the general (unspecialized) version at the given level.
  /// The returned object is owned by M; the caller installs it.
  CompiledMethod *compileGeneral(MethodInfo &M, int Level);

  /// Compiles the version specialized for hot state StateIdx of CP, or
  /// returns a cache-shared version another hot state already produced.
  CompiledMethod *compileSpecial(MethodInfo &M, int Level,
                                 const MutableClassPlan &CP, size_t StateIdx);

  /// No-op: bodies and byte counters are final when a compile returns.
  /// Kept with pipeline() for perfbench/ (compiler/CompilePipeline.h).
  void sync() {}
  const CompilePipeline &pipeline() const { return Pipeline; }

  const CompilerStats &stats() const { return Stats; }

private:
  /// A specialization the cache can serve again: the compiled body plus the
  /// unit size its modeled cost was computed from (hits must charge the
  /// exact cycles a recompile would have).
  struct CacheEntry {
    CompiledMethod *CM = nullptr;
    size_t UnitSize = 0;
  };

  CompiledMethod *finish(MethodInfo &M, IRFunction Code, int Level,
                         int StateIdx);

  Program &P;
  InlinerConfig InlineCfg;
  const OlcDatabase *Olc = nullptr;
  const MutationPlan *Plan = nullptr;
  CompilerStats Stats;
  CompilePipeline Pipeline;
  bool CacheEnabled = false;
  bool VerifyBodies = false;
  /// Content key (method, level, consumed bindings) -> shared special.
  std::unordered_map<std::string, CacheEntry> SpecCache;
};

} // namespace dchm

#endif // DCHM_COMPILER_OPTCOMPILER_H
