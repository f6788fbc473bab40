//===-- bench/BenchHarness.h - Experiment harness --------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark binaries: the header each one prints.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_BENCH_BENCHHARNESS_H
#define DCHM_BENCH_BENCHHARNESS_H

namespace dchm {
namespace bench {

/// Prints the standard header naming the figure being regenerated.
void printHeader(const char *Figure, const char *Caption);

} // namespace bench
} // namespace dchm

#endif // DCHM_BENCH_BENCHHARNESS_H
