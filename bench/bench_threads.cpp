//===-- bench/bench_threads.cpp - Multi-mutator scaling bench -----------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// Host-side throughput benchmark of the multi-mutator VM (docs/threads.md):
// the multi-warehouse program tests/data/warehouses.mvm, where every
// mutator thread drives its own warehouse against one shared
// Program/Heap/compiler, run through the `.mvm` harness (testing/MvmRun)
// with its `#!` plan.
//
// For N in {1, 2, 4, 8} mutators, mutation off and on, a runMvm call runs
// a fixed per-warehouse transaction count and is timed as a whole. Each
// point runs three times; the bench reports the median wall time with its
// min-max, the wall-clock transactions per second at the median, and the
// scaling factor over the single-mutator median. The sweep is interleaved:
// timed run r of every point runs before run r+1 of any, so a burst of
// other load on the host falls on both sides of a scaling ratio instead of
// on one point's three runs. Weak scaling: every thread does the same
// work, so ideal scaling is N on N cores. Every warehouse's output hash
// must equal the single-mutator one: the throughput numbers are only
// admissible because the work is the same work. The audited equivalence
// check of the same program is ctest cli_exec_warehouses.
//
// The acceptance bar for the multi-mutator overhaul is >1.5x at 4 mutators
// with mutation on, between medians: the bench exits 1 below it. It
// asserts the bar only when the host has >= 4 hardware threads (scaling is
// a property of the VM, not of a single-core CI container); on a smaller
// host it exits 77 after reporting, which ctest's bench_threads_scaling
// counts as skipped.
//
// Flags: --txns=N   (transactions per warehouse, default 600000)
//
//===----------------------------------------------------------------------===//

#include "support/Parse.h"
#include "support/Timer.h"
#include "testing/MvmRun.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace dchm;

namespace {

/// Exit status when the host is too small to check the scaling bar; the
/// ctest of the bar maps it to "skipped" (SKIP_RETURN_CODE).
constexpr int ExitScalingNotMeasured = 77;

/// Timed runs per sweep point; the bench reports their median.
constexpr int RunsPerPoint = 3;

std::string readWarehouses() {
  std::ifstream In(DCHM_WAREHOUSES_MVM);
  std::stringstream Ss;
  Ss << In.rdbuf();
  return Ss.str();
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Txns = 600000;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--txns=", 0) == 0)
      Txns = intFlag("--txns", Argv[I] + 7, 1, LLONG_MAX);
    else {
      std::fprintf(stderr, "unknown flag %s\n", A.c_str());
      return 1;
    }
  }
  const std::string Source = readWarehouses();
  if (Source.empty()) {
    std::fprintf(stderr, "bench_threads: cannot read %s\n",
                 DCHM_WAREHOUSES_MVM);
    return 1;
  }

  std::printf("=== DCHM: multi-mutator warehouse throughput (host wall clock; "
              "docs/threads.md) ===\n\n");
  unsigned HwThreads = std::thread::hardware_concurrency();
  std::printf("host hardware threads: %u, transactions/warehouse: %llu\n\n",
              HwThreads, (unsigned long long)Txns);
  std::printf("%-10s %-9s %12s %17s %14s %9s\n", "mutators", "mutation",
              "wall (s)", "min-max (s)", "tx/sec", "scaling");

  // One sweep point: mutators N, mutation off/on, its timed runs.
  struct Point {
    unsigned N;
    bool Mutation;
    double Walls[RunsPerPoint];
  };
  std::vector<Point> Points;
  for (bool Mutation : {false, true})
    for (unsigned N : {1u, 2u, 4u, 8u})
      Points.push_back({N, Mutation, {}});

  std::optional<uint64_t> RefHash[2]; // per mutation off/on
  for (int R = 0; R < RunsPerPoint; ++R)
    for (Point &Pt : Points) {
      MvmRunConfig Cfg;
      Cfg.Mutate = Pt.Mutation;
      Cfg.Args = {static_cast<int64_t>(Txns)};
      Cfg.TmainMutators = Pt.N;
      Timer Wall;
      MvmRunResult Run = runMvm(Source, Cfg);
      Pt.Walls[R] = Wall.seconds();
      if (!Run.ok()) {
        std::fprintf(stderr, "bench_threads: %s\n", Run.Error.c_str());
        return 1;
      }
      // Admissibility: every warehouse must have done the reference work.
      std::optional<uint64_t> &Ref = RefHash[Pt.Mutation];
      if (!Ref)
        Ref = Run.ThreadHashes[0];
      for (uint64_t H : Run.ThreadHashes)
        if (H != *Ref) {
          std::fprintf(stderr, "FAIL: warehouse hash diverged at N=%u\n",
                       Pt.N);
          return 1;
        }
    }

  double Scaling4On = 0.0;
  double Tps1 = 0.0;
  for (Point &Pt : Points) {
    double *Walls = Pt.Walls;
    std::sort(Walls, Walls + RunsPerPoint);
    double WallSec = Walls[RunsPerPoint / 2];
    double Tps =
        static_cast<double>(Pt.N) * static_cast<double>(Txns) / WallSec;
    if (Pt.N == 1)
      Tps1 = Tps;
    double Scaling = Tps / Tps1;
    if (Pt.N == 4 && Pt.Mutation)
      Scaling4On = Scaling;
    std::printf("%-10u %-9s %12.3f %8.3f-%-8.3f %14.0f %8.2fx\n", Pt.N,
                Pt.Mutation ? "on" : "off", WallSec, Walls[0],
                Walls[RunsPerPoint - 1], Tps, Scaling);
  }

  bool ScalingMeasurable = HwThreads >= 4;
  if (ScalingMeasurable) {
    std::printf("\nscaling at 4 mutators (mutation on): %.2fx (bar: >1.5x) — %s\n",
                Scaling4On, Scaling4On > 1.5 ? "PASS" : "FAIL");
    if (Scaling4On <= 1.5)
      return 1;
  } else {
    std::printf("\nscaling at 4 mutators (mutation on): %.2fx — not asserted, "
                "host has %u hardware thread(s)\n",
                Scaling4On, HwThreads);
  }
  return ScalingMeasurable ? 0 : ExitScalingNotMeasured;
}
