//===-- runtime/CostModel.h - Simulated cycle cost model ------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic cycle costs standing in for the paper's 2.4 GHz Pentium 4.
/// Execution cost is charged per interpreted instruction plus dispatch
/// overheads; compilation cost is charged per compiled instruction per
/// optimization level. Absolute values are calibrated so the *relative*
/// behavior matches the paper: virtual dispatch through a special TIB costs
/// exactly the same as through the class TIB (the paper's "without any extra
/// overhead" property), state-field writes pay a small patch-code charge,
/// interface dispatch through a mutable class's IMT slot pays one extra
/// load, and opt2 compilation is an order of magnitude more expensive than
/// opt0 (Figure 11's compile-time story).
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_COSTMODEL_H
#define DCHM_RUNTIME_COSTMODEL_H

#include "ir/Opcode.h"

#include <cstdint>

namespace dchm {

/// Simulated clock frequency: cycles per simulated second. Used by the
/// SPECjbb-like workloads to convert cycle windows into "seconds" and
/// throughput figures.
constexpr uint64_t CyclesPerSecond = 100'000'000;

/// Per-opcode execution cost in cycles (dispatch overheads excluded): the
/// cycles column of the opcode table (ir/Opcode.h).
inline uint64_t opcodeCycles(Opcode Op) { return opcodeInfo(Op).Cycles; }

/// Call and dispatch overheads (frame setup + the dispatch loads).
struct DispatchCost {
  static constexpr uint64_t StaticCall = 10;    ///< JTOC load + call
  static constexpr uint64_t SpecialCall = 10;   ///< class TIB slot + call
  static constexpr uint64_t VirtualCall = 13;   ///< object TIB + slot + call
  static constexpr uint64_t InterfaceCall = 16; ///< TIB + IMT + slot + call
  /// Extra load when a single-method IMT slot of a *mutable* class holds a
  /// TIB offset instead of a code pointer (paper section 3.2.3).
  static constexpr uint64_t ImtMutableExtraLoad = 2;
  /// Conflict-stub search when multiple interface methods share an IMT slot.
  static constexpr uint64_t ImtConflictStub = 12;
  /// Patch code run at an assignment of a state field: gather the state
  /// fields, compare against the hot states (algorithm part I entry).
  static constexpr uint64_t StateFieldPatchBase = 6;
  static constexpr uint64_t StateFieldPatchPerField = 3;
  /// Swinging an object TIB pointer or a TIB/JTOC code pointer.
  static constexpr uint64_t PointerSwing = 2;
};

/// Compilation cost per *input* (bytecode, post-inlining) instruction for
/// each optimization level. Recompiling a mutable method at opt2 generates
/// the general version plus every specialized version, so each hot state
/// adds roughly one more Opt2PerInst * size charge (Figure 11).
struct CompileCost {
  // Calibrated against the paper's Figure 11 bar labels (compilation is
  // 0.3%-3.1% of total execution time across the benchmark set).
  static constexpr uint64_t Opt0PerInst = 64;
  static constexpr uint64_t Opt1PerInst = 480;
  static constexpr uint64_t Opt2PerInst = 1100;
  static constexpr uint64_t PerCompile = 3000; ///< fixed plan/IR setup charge
  /// Specialized versions are generated "at the same time" as the opt2
  /// general compile (Figure 5) and reuse its compilation plan and inlining
  /// decisions; only constant substitution and final lowering re-run, so
  /// each extra version is much cheaper than a from-scratch opt2 compile.
  static constexpr uint64_t SpecialPerInst = 320;
  static constexpr uint64_t SpecialPerCompile = 800;

  static uint64_t perInst(int Level) {
    switch (Level) {
    case 0:
      return Opt0PerInst;
    case 1:
      return Opt1PerInst;
    default:
      return Opt2PerInst;
    }
  }
};

} // namespace dchm

#endif // DCHM_RUNTIME_COSTMODEL_H
