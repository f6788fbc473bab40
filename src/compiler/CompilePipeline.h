//===-- compiler/CompilePipeline.h - Compile counters view -----*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A read-only view left over from the removed background compile pipeline.
/// Every compile now runs the optimization pipeline and publishes its body
/// on the requesting thread (docs/compile_pipeline.md). These names exist
/// only because perfbench/ compiles against them (OptCompiler::pipeline()
/// and OptCompiler::sync()); they leave with the next benchmark change.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_COMPILER_COMPILEPIPELINE_H
#define DCHM_COMPILER_COMPILEPIPELINE_H

#include <cstdint>

namespace dchm {

/// Host-side compile counters. Only InlineRuns moves: every compile runs
/// inline. The other fields stay 0.
struct PipelineStats {
  uint64_t Enqueued = 0;
  uint64_t InlineRuns = 0; ///< compiles run on the requesting thread
  uint64_t UrgentWaits = 0;
  uint64_t Boosts = 0;
  uint64_t FailedAttempts = 0;
  uint64_t Retries = 0;
  uint64_t Quarantines = 0;
};

/// Reports a synchronous compiler with no worker threads.
class CompilePipeline {
public:
  bool async() const { return false; }
  unsigned threads() const { return 0; }
  const PipelineStats &stats() const { return Stats; }

private:
  friend class OptCompiler;
  PipelineStats Stats;
};

} // namespace dchm

#endif // DCHM_COMPILER_COMPILEPIPELINE_H
