//===-- adaptive/AdaptiveSystem.h - Adaptive optimization -----*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Jikes adaptive optimization system in miniature: the compile-only
/// ladder. Methods are compiled at opt0 on first invocation; entry and
/// back-edge samples accumulate per *method* (shared across its general and
/// special compiled versions, so specialization does not dilute hotness —
/// paper section 3.2.3); crossing the opt1/opt2 thresholds triggers a
/// synchronous recompilation. Sampling ends at the top of the ladder
/// (TopOptLevel): with SampleInterval == 1 the interpreter takes no sample
/// for a top-tier method, since no decision ever reads its count again.
/// Recompiling a mutable method at opt2 also generates every specialized
/// version and notifies the mutation engine to run algorithm part II
/// (Figure 5). The accelerated mode of Figure 14
/// compiles mutable methods straight to opt2 right after opt0.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_ADAPTIVE_ADAPTIVESYSTEM_H
#define DCHM_ADAPTIVE_ADAPTIVESYSTEM_H

#include "compiler/OptCompiler.h"
#include "mutation/MutationPlan.h"
#include "runtime/Program.h"

namespace dchm {

/// Notified after a mutable method's opt2 recompilation produced fresh
/// general + special code, so the TIB/JTOC pointers can be redirected.
/// Implemented by the mutation engine.
class RecompileListener {
public:
  virtual ~RecompileListener() = default;
  virtual void onMutableMethodRecompiled(MethodInfo &M) = 0;
};

/// Adaptive system tunables.
struct AdaptiveConfig {
  /// Samples (entries + back edges) promoting opt0 -> opt1.
  uint64_t Opt1Threshold = 300;
  /// Samples promoting opt1 -> opt2 (where mutation happens).
  uint64_t Opt2Threshold = 3000;
  /// Figure 14: compile mutable methods at opt1+opt2 immediately after opt0.
  bool AcceleratedMutableHotness = false;
  /// Sampling decimation: only every Nth entry/back-edge event counts as a
  /// sample. Jikes samples on timer ticks, so hotness detection is sparse;
  /// interval 1 (default) counts every event (fastest detection), larger
  /// intervals reproduce the paper's multi-warehouse warm-up (Figures 13-15).
  uint64_t SampleInterval = 1;
};

/// Counters for the experiment harness.
struct AdaptiveStats {
  unsigned InitialCompiles = 0;
  unsigned Recompilations = 0;
};

/// The recompilation ladder.
class AdaptiveSystem {
public:
  /// Listener hears of every opt2 recompile of a mutable method of the
  /// plan installed on P (Program::mutationPlan).
  AdaptiveSystem(Program &P, OptCompiler &OC, AdaptiveConfig Cfg,
                 RecompileListener &Listener)
      : P(P), OC(OC), Cfg(Cfg), Listener(Listener) {}

  /// Lazy first compile at opt0 (the "initial compiler is the optimization
  /// compiler, default level opt0" configuration of the paper) + install.
  CompiledMethod *ensureCompiled(MethodInfo &M);

  /// Hotness sample on a method entry or loop back edge, safe on any
  /// mutator: bumps the decimation tick and the method's sample count with
  /// relaxed atomics and returns true when the counts suggest a promotion.
  /// The caller then stops the world and calls promote(), which re-checks
  /// everything (the pre-check may be stale; promote() is the arbiter).
  bool sample(MethodInfo &M);
  /// Recompiles M when its samples crossed a threshold. Call only with the
  /// world stopped.
  void promote(MethodInfo &M);

  /// For plans installed mid-run (the online pipeline): mutable methods that
  /// already reached a high opt level were compiled before the plan existed
  /// and have no specialized versions — recompile them at opt2 now so
  /// algorithm part II can route their special code.
  void refreshMutableMethods();

  const AdaptiveStats &stats() const { return Stats; }

private:
  void recompile(MethodInfo &M, int Level);

  Program &P;
  OptCompiler &OC;
  AdaptiveConfig Cfg;
  RecompileListener &Listener;
  AdaptiveStats Stats;
  /// Atomic: every mutator samples. At one mutator the increments come in
  /// program order, so the decimation stream is exact.
  std::atomic<uint64_t> EventTick{0};
  bool InRecompile = false;
};

} // namespace dchm

#endif // DCHM_ADAPTIVE_ADAPTIVESYSTEM_H
