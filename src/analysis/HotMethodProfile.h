//===-- analysis/HotMethodProfile.h - Hot-function profile ----*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper obtains its list of hot functions (call frequency + execution
/// time per function) from Intel VTune. Our stand-in gathers the same
/// artifact from an instrumented profiling run: the interpreter attributes
/// simulated cycles and invocation counts to each method.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_ANALYSIS_HOTMETHODPROFILE_H
#define DCHM_ANALYSIS_HOTMETHODPROFILE_H

#include "exec/Interpreter.h"
#include "runtime/Program.h"

#include <algorithm>
#include <vector>

namespace dchm {

/// Per-method hotness derived from a profiling run.
struct HotMethodProfile {
  /// Fraction of total application cycles per method id (sums to ~1).
  std::vector<double> Hotness;
  /// Method ids ranked by hotness, hottest first.
  std::vector<MethodId> Ranked;

  double hotness(MethodId M) const {
    return M < Hotness.size() ? Hotness[M] : 0.0;
  }

  /// Builds a profile from an interpreter that ran with setProfiling(true).
  static HotMethodProfile fromInterpreter(const Interpreter &I,
                                          const Program &P) {
    HotMethodProfile Prof;
    const auto &Cycles = I.methodCycles();
    uint64_t Total = 0;
    for (uint64_t C : Cycles)
      Total += C;
    Prof.Hotness.assign(P.numMethods(), 0.0);
    for (size_t M = 0; M < Cycles.size(); ++M)
      Prof.Hotness[M] =
          Total == 0 ? 0.0
                     : static_cast<double>(Cycles[M]) / static_cast<double>(Total);
    for (size_t M = 0; M < P.numMethods(); ++M)
      Prof.Ranked.push_back(static_cast<MethodId>(M));
    std::sort(Prof.Ranked.begin(), Prof.Ranked.end(),
              [&](MethodId A, MethodId B) {
                return Prof.Hotness[A] > Prof.Hotness[B];
              });
    return Prof;
  }
};

} // namespace dchm

#endif // DCHM_ANALYSIS_HOTMETHODPROFILE_H
