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

namespace dchm {

/// Cumulative compiler activity over a run.
///
/// The cycle fields are part of the simulated machine and are charged
/// deterministically at request time, in program order.
struct CompilerStats {
  uint64_t TotalCompileCycles = 0;
  uint64_t SpecialCompileCycles = 0; ///< spent on specialized versions only
  size_t TotalCodeBytes = 0;         ///< all compiled code ever generated
  size_t SpecialCodeBytes = 0;       ///< specialized versions only
  unsigned CompilesAtLevel[3] = {0, 0, 0};
  unsigned SpecialCompiles = 0; ///< specialized bodies compiled
  /// Kept for perfbench/: always equals SpecialCompiles.
  unsigned SpecialCompileRequests = 0;
  /// Kept for perfbench/: always 0.
  unsigned SpecialCacheHits = 0;
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
  void setOlcDatabase(const OlcDatabase *Db) { Olc = Db; }
  /// Wires in the mutation plan (enables the trade-off heuristic and
  /// specialized compilation).
  void setPlan(const MutationPlan *Pl) { Plan = Pl; }

  /// Runs the IR verifier on every finished (optimized) body and aborts
  /// with a diagnostic naming the method, level and state on a violation.
  /// Off by default; the VM turns it on with the consistency auditor.
  void setVerifyBodies(bool On) { VerifyBodies = On; }

  /// Compiles the general (unspecialized) version at the given level.
  /// The returned object is owned by M; the caller installs it.
  CompiledMethod *compileGeneral(MethodInfo &M, int Level);

  /// Compiles the version specialized for hot state StateIdx of CP. Each
  /// call produces a new body owned by M; no two states share one.
  CompiledMethod *compileSpecial(MethodInfo &M, int Level,
                                 const MutableClassPlan &CP, size_t StateIdx);

  /// No-op: bodies and byte counters are final when a compile returns.
  /// Kept with pipeline() for perfbench/ (compiler/CompilePipeline.h).
  void sync() {}
  const CompilePipeline &pipeline() const { return Pipeline; }

  const CompilerStats &stats() const { return Stats; }

private:
  CompiledMethod *finish(MethodInfo &M, IRFunction Code, int Level,
                         int StateIdx);

  Program &P;
  InlinerConfig InlineCfg;
  const OlcDatabase *Olc = nullptr;
  const MutationPlan *Plan = nullptr;
  CompilerStats Stats;
  CompilePipeline Pipeline;
  bool VerifyBodies = false;
};

} // namespace dchm

#endif // DCHM_COMPILER_OPTCOMPILER_H
