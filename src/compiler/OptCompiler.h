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
#include <vector>

namespace dchm {

/// Cumulative compiler activity over a run.
///
/// The cycle fields are part of the simulated machine and are charged
/// deterministically at request time on the application thread, regardless
/// of where (or whether yet) the host-side work ran: async mode and the
/// specialization cache change wall time, compile counts, and code bytes,
/// never cycles. The byte fields of in-flight async jobs are folded in by
/// sync(); cycle fields are always current.
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
/// Compilation is split in two: the *front half* (bytecode copy,
/// specialization, inlining, modeled-cost charging, shell creation) always
/// runs synchronously on the calling thread, so everything the simulated
/// machine can observe is fixed in program order; the *back half* (the
/// optimization pipeline and body publication) runs on the CompilePipeline,
/// possibly on a worker thread. See docs/compile_pipeline.md.
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

  /// Configures background compilation and the specialization cache. The
  /// default is fully synchronous with the cache off — the seed behavior —
  /// so standalone OptCompiler users (tests, analysis tools) see code
  /// immediately; the VM hands in the configuration it resolved from
  /// VMOptions and the environment. Never reads the environment itself.
  void configure(const CompilePipeline::Config &C, bool SpecializationCache);

  /// Compiles the general (unspecialized) version at the given level.
  /// The returned object is owned by M; the caller installs it.
  CompiledMethod *compileGeneral(MethodInfo &M, int Level);

  /// Compiles the version specialized for hot state StateIdx of CP, or
  /// returns a cache-shared version another hot state already produced.
  CompiledMethod *compileSpecial(MethodInfo &M, int Level,
                                 const MutableClassPlan &CP, size_t StateIdx);

  /// Blocks until all background compilation has finished and folds the
  /// deferred byte accounting into stats(). Call before reading code bodies
  /// or byte counters; cycle counters never need it.
  void sync();

  /// Blocks until CM's body is published (no-op if it already is).
  void waitFor(CompiledMethod &CM) { Pipeline.waitFor(CM); }

  CompilePipeline &pipeline() { return Pipeline; }

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
                         int StateIdx, CompilePriority Pr);
  void foldBytes(CompiledMethod *CM);

  Program &P;
  InlinerConfig InlineCfg;
  const OlcDatabase *Olc = nullptr;
  const MutationPlan *Plan = nullptr;
  CompilerStats Stats;
  CompilePipeline Pipeline;
  bool CacheEnabled = false;
  /// Content key (method, level, consumed bindings) -> shared special.
  std::unordered_map<std::string, CacheEntry> SpecCache;
  /// Shells whose bodies are still in flight; byte accounting is folded by
  /// sync() once the sizes exist. Application-thread only.
  std::vector<CompiledMethod *> PendingBytes;
};

} // namespace dchm

#endif // DCHM_COMPILER_OPTCOMPILER_H
