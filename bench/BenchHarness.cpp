//===-- bench/BenchHarness.cpp - Experiment harness ---------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include <cstdio>

namespace dchm {
namespace bench {

void printHeader(const char *Figure, const char *Caption) {
  std::printf("=== DCHM reproduction: %s ===\n", Figure);
  std::printf("%s\n", Caption);
  std::printf("(simulated cycles; deterministic cost model; "
              "paper values for comparison)\n\n");
}

} // namespace bench
} // namespace dchm
