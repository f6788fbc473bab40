//===-- analysis/OfflinePipeline.h - The Figure 3 pipeline ----*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glues the offline steps of Figure 3 into one pipeline:
///
///   identify a list of hot methods        (the profiling run)
///   -> derive state fields for hot classes (EQ 1 static analysis)
///   -> find hot states for hot classes     (value profile of the same run)
///   -> hot state information               (the MutationPlan)
///
/// The paper profiles twice (VTune, then an instrumented Jikes run). The
/// program is deterministic and mutation is off, so the second run would
/// repeat the first; instead the one run also records the value profile of
/// every field EQ 1 could pick (branchTestedFields), and the profile is
/// projected onto the fields EQ 1 does pick afterwards. The artifacts are
/// those of the two-run pipeline.
///
/// The pipeline builds a fresh Program through a ProgramSource so
/// profiling never contaminates the measured run; entity ids are stable
/// because the source builds the identical program each time.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_ANALYSIS_OFFLINEPIPELINE_H
#define DCHM_ANALYSIS_OFFLINEPIPELINE_H

#include "analysis/HotMethodProfile.h"
#include "analysis/StateFieldAnalysis.h"
#include "analysis/ValueProfiler.h"
#include "core/VM.h"
#include "mutation/MutationPlan.h"

#include <memory>

namespace dchm {

/// Builds identical Program instances and drives a profiling run on one.
/// Implemented by every workload.
class ProgramSource {
public:
  virtual ~ProgramSource() = default;
  /// Builds a fresh, linked Program. Must be deterministic: repeated calls
  /// produce identical entity ids, so a plan derived on one Program
  /// applies to the next.
  virtual std::unique_ptr<Program> buildProgram() = 0;
  /// Drives a profiling-scale run (a fraction of the full workload).
  virtual void driveProfile(VirtualMachine &VM) = 0;
};

/// At most this many hot states per mutable class (heaviest first).
constexpr size_t MaxHotStates = 8;
/// Minimum hotness for a method to become a *mutable method*.
constexpr double MutableMethodHotness = 0.002;

/// Pipeline tunables.
struct OfflineConfig {
  /// Minimum share of a class's value samples a hot state must cover.
  double HotStateMinFraction = 0.05;
};

/// Pipeline artifacts (the plan plus the intermediate results, for tools
/// and tests).
struct OfflineResult {
  MutationPlan Plan;
  HotMethodProfile Profile;
  std::vector<ClassStateFields> Candidates;
  /// The candidates' hot states, mined from the value profile.
  std::vector<ValueProfiler::ClassStates> Mined;
};

/// Runs the full offline pipeline.
OfflineResult runOfflinePipeline(ProgramSource &Source,
                                 const OfflineConfig &Cfg);

/// Final assembly step shared by the offline pipeline and the online
/// controller: turns mined hot states plus the hot-method profile into a
/// MutationPlan (hot state tuples + the mutable methods that read them).
MutationPlan assembleMutationPlan(
    const Program &P, const HotMethodProfile &Profile,
    const std::vector<ValueProfiler::ClassStates> &Mined);

} // namespace dchm

#endif // DCHM_ANALYSIS_OFFLINEPIPELINE_H
