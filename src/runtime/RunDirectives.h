//===-- runtime/RunDirectives.h - The `#!` lines of a .mvm text -*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a `.mvm` text says about its own run (docs/mvm-format.md), as
/// assembleProgram (asm/Assembler.h), their one reader, resolves it against
/// the Program it links. runDrive (core/VM.h) drives a DriveDirective.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_RUNDIRECTIVES_H
#define DCHM_RUNTIME_RUNDIRECTIVES_H

#include "ir/Ids.h"
#include "mutation/MutationPlan.h"
#include "runtime/Value.h"

#include <cstdint>
#include <vector>

namespace dchm {

/// `#!drive [seed=C.f:<n>] init=<call> batch=<call>x<count> [min=<n>]
/// check=<call>`, each call a static `C.m(<n>,...)`.
struct DriveDirective {
  FieldId SeedField = NoFieldId; ///< NoFieldId: no seed store
  int64_t Seed = 0;
  /// Init is NoMethodId when the text has no `#!drive`.
  MethodId Init = NoMethodId, Batch = NoMethodId, Check = NoMethodId;
  std::vector<Value> InitArgs, BatchArgs, CheckArgs;
  long Batches = 0, MinBatches = 0; ///< at scale 1; at any scale
};

/// The directives of one text, resolved against its Program.
struct RunDirectives {
  MutationPlan Plan; ///< `#!mutable` / `#!hot`
  uint64_t Opt1 = 0, Opt2 = 0; ///< 0 = `#!adaptive` absent, keep defaults
  /// From `#!segments <n>`: drive Main.seg0..n-1 instead of Main.main,
  /// installing the plan after seg0. Segments == 1 means no directive.
  int Segments = 1;
  DriveDirective Drive;
  /// A `#!threads` line: the mark `dchm_fuzz --threads` puts on its
  /// artifacts, so `dchm_run exec` replays them through the threads oracle.
  bool Threads = false;
};

} // namespace dchm

#endif // DCHM_RUNTIME_RUNDIRECTIVES_H
