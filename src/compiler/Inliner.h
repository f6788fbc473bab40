//===-- compiler/Inliner.h - Method inlining ------------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The opt2 inliner. Reproduces the three inlining behaviors the paper
/// depends on:
///
///  1. Conventional heuristic inlining of exact-target calls (static,
///     special, and effectively-final virtual calls), bounded by callee
///     size, depth, and total growth — Jikes' static size heuristics.
///  2. *Specialization inlining* (paper section 5): when the receiver is a
///     private exact-type reference field with object lifetime constants,
///     the callee is devirtualized through the exact type, inlined, and the
///     OLC fields are substituted with their constants — no value guards.
///     Fields without OLC proofs stay as loads (partial specialization).
///  3. The inline-vs-specialize trade-off for mutable methods: with N
///     constant arguments at the call site and M specializable state fields
///     in the callee, inline only when N > M + k (tunable k); otherwise
///     leave the virtual dispatch in place so the special-TIB mechanism can
///     bind the call to specialized code.
///
/// A call whose target cannot be proven stays a call: there is no guarded
/// (class-test) inlining, since special TIBs reach specialized code with no
/// guard that could mispredict.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_COMPILER_INLINER_H
#define DCHM_COMPILER_INLINER_H

#include "compiler/Olc.h"
#include "mutation/MutationPlan.h"
#include "runtime/Program.h"

namespace dchm {

/// Tunables for the inliner.
struct InlinerConfig {
  int TradeoffK = 0; ///< k of the N > M + k heuristic
  bool EnableSpecializationInlining = true;
};

/// Per-run inlining statistics (Figure 10/11 inputs).
struct InlineStats {
  unsigned SitesInlined = 0;
  unsigned SpecializationInlines = 0; ///< OLC-substituting inlines
  unsigned TradeoffRejections = 0;    ///< sites left to specialization
  unsigned InstsAdded = 0;

  InlineStats &operator+=(const InlineStats &O) {
    SitesInlined += O.SitesInlined;
    SpecializationInlines += O.SpecializationInlines;
    TradeoffRejections += O.TradeoffRejections;
    InstsAdded += O.InstsAdded;
    return *this;
  }
};

/// Inlines call sites of F (the body of Root) in place.
class Inliner {
public:
  /// Callee bytecode size bound (Jikes' static size heuristic).
  static constexpr unsigned MaxCalleeInsts = 36;
  /// Inlining depth bound.
  static constexpr unsigned MaxDepth = 3;
  /// Total instructions added per root.
  static constexpr unsigned MaxFunctionGrowth = 400;
  /// OLC presence lowers the modeled inlining cost of a callee: each OLC
  /// substitution credits this many instructions against the size bound.
  static constexpr unsigned OlcSizeCredit = 2;

  Inliner(Program &P, const InlinerConfig &Cfg, const OlcDatabase *Olc,
          const MutationPlan *Plan);

  /// Runs inlining rounds up to the configured depth. Returns statistics.
  InlineStats run(IRFunction &F, const MethodInfo &Root);

private:
  /// Exact dispatch target of the call at F.Insts[Idx], or null when the
  /// target cannot be proven (polymorphic virtual call, interface call
  /// without exact receiver type).
  const MethodInfo *resolveExactTarget(const IRFunction &F,
                                       const Instruction &Call,
                                       const MethodInfo &Root,
                                       const OlcEntry **OlcOut) const;

  bool shouldInline(const IRFunction &F, const Instruction &Call,
                    const MethodInfo &Callee, const OlcEntry *Olc,
                    unsigned Budget, InlineStats &Stats) const;

  /// Splices Callee's bytecode over the call at CallIdx. Returns the number
  /// of instructions the function grew by.
  unsigned spliceCall(IRFunction &F, size_t CallIdx, const MethodInfo &Callee,
                      const OlcEntry *Olc);

  Program &P;
  InlinerConfig Cfg;
  const OlcDatabase *Olc;
  const MutationPlan *Plan;
  /// SlotRoot -> number of implementations (for effectively-final tests).
  std::vector<uint32_t> ImplCountBySlotRoot;
};

} // namespace dchm

#endif // DCHM_COMPILER_INLINER_H
