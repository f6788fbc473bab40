//===-- testing/MvmRun.h - One run of a .mvm program -----------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of how a `.mvm` program runs. The differential
/// fuzzer (tools/dchm_fuzz), its shrinker, its fault-injection and
/// multi-mutator modes, and the replay command `dchm_run exec` all call
/// runMvm, and the multi-mutator oracle (threadsFailure) lives here too, so
/// a replay runs exactly what the failing run ran.
///
/// A run assembles the source (which parses its `#!` directives whether or
/// not it mutates), deploys it with the text's own plan through Deployment
/// (online/Deployment.h), which applies `#!adaptive` and attaches the
/// consistency auditor before the install, and then drives one of:
///
///  - with no explicit entry, the file's `#!drive` at scale 1 through
///    runDrive (core/VM.h), which drives the Table 1 workloads too;
///  - the entry method once on context 0;
///  - for `Main.main` of a `#!segments` program, `Main.seg0..n-1` one at a
///    time; with mutation the plan is installed after seg0 instead of at
///    startup, the online activation path (mutation off drives the same
///    segments);
///  - `Main.main` on context 0, then `Main.tmain` on N concurrent mutators
///    (docs/threads.md).
///
/// Every failure is a diagnostic in MvmRunResult::Error, never an abort.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_TESTING_MVMRUN_H
#define DCHM_TESTING_MVMRUN_H

#include "core/VM.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dchm {

/// The choices a caller makes about one run.
struct MvmRunConfig {
  /// Install the file's `#!mutable` / `#!hot` plan. A text without one
  /// is then an error, not a silently unmutated run.
  bool Mutate = false;
  /// Static entry method: `Class.method`, or a bare name resolved to the
  /// first class defining it. Empty: the file's `#!drive`, else `main`.
  std::string Entry;
  std::vector<int64_t> Args;
  /// 0 runs Entry. N > 0 runs Entry on context 0, clears every output
  /// stream, then runs `Main.tmain` on N concurrent mutators.
  unsigned TmainMutators = 0;
  /// Audit every Nth safepoint and every mutation transition with a
  /// ConsistencyAuditor, plus once at the end; 0 runs without one.
  uint64_t AuditStride = 0;
  /// Fault to inject into the mutation engine.
  MutationDebugFlags Faults;
};

/// What one run produced.
struct MvmRunResult {
  /// Empty on success; otherwise the diagnostic that stopped the run.
  std::string Error;
  /// Context 0's output (its `Main.tmain` stream with TmainMutators > 0).
  std::string Output;
  Value Result = valueI(0); ///< Entry's (or the last segment's) result
  Type ResultType = Type::Void;
  /// Per-mutator output hashes of the `Main.tmain` phase.
  std::vector<uint64_t> ThreadHashes;
  RunMetrics Metrics;
  uint64_t Violations = 0;
  std::string AuditReport; ///< empty without an auditor

  bool ok() const { return Error.empty(); }
  /// Why this run fails an oracle's per-run checks (it stopped with an
  /// error, or the auditor found violations; What names the run), or "".
  std::string failure(const std::string &What) const;
};

/// Runs one `.mvm` program as Cfg says.
MvmRunResult runMvm(const std::string &Source, const MvmRunConfig &Cfg);

/// The multi-mutator oracle: runs Cfg with `Main.tmain` on 1, 2 and 4
/// mutators. Every run must pass its per-run checks, and every mutator's
/// output hash must equal the 1-mutator stream. Returns why Source fails
/// ("" when it passes); Runs receives the runs made, in order.
std::string threadsFailure(const std::string &Source, MvmRunConfig Cfg,
                           std::vector<MvmRunResult> &Runs);

} // namespace dchm

#endif // DCHM_TESTING_MVMRUN_H
