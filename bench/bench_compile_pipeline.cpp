//===-- bench/bench_compile_pipeline.cpp - Specialization cache bench ---------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// Benchmark of the content-keyed specialization cache
// (docs/compile_pipeline.md) on a SPECjbb2000-like run with a DisplayScreen
// plan holding two hot states that differ only in `rows`: putText reads
// only `cols`, so its two specials collapse to one compiled body (paper
// Figure 7's screens, where distinct screen states are often
// indistinguishable to a given method).
//
// The run is made with the cache off and on. Simulated cycle counts,
// instruction counts, and the output hash must be bit-identical in both;
// the cache must produce hits and save special code bytes. Results go to
// stdout and, machine-readable, to BENCH_compile.json.
//
// Flags: --check (small CI-friendly mode, scale 0.05 instead of 0.25; for
//        ctest)
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "core/VM.h"

#include <cstdio>
#include <cstring>

using namespace dchm;
using namespace dchm::bench;

namespace {

/// Two hot states that differ only in `rows`: putText (reads `cols` only)
/// cannot tell them apart, clear (reads both) can.
MutationPlan makeScreenPlan(Program &P) {
  ProgramIds Ids(P);
  MutableClassPlan CP;
  CP.Cls = Ids.cls("DisplayScreen");
  CP.InstanceStateFields = {Ids.field("DisplayScreen", "rows"),
                            Ids.field("DisplayScreen", "cols")};
  HotState S0, S1;
  S0.InstanceVals = {valueI(24), valueI(80)};
  S1.InstanceVals = {valueI(25), valueI(80)};
  CP.HotStates = {S0, S1};
  CP.MutableMethods = {Ids.method("DisplayScreen", "putText"),
                       Ids.method("DisplayScreen", "clear")};
  MutationPlan Plan;
  Plan.Classes.push_back(CP);
  return Plan;
}

RunMetrics runJbbScreens(bool Cache, double Scale) {
  auto W = makeJbb(JbbVariant::Jbb2000);
  auto P = W->buildProgram();
  VMOptions Opts;
  Opts.SpecializationCache = Cache;
  Opts.HeapBytes = heapBytesFor(W->name());
  // Mutable methods go straight to opt2 on first call, so the specialized
  // versions exist regardless of the run's scale.
  Opts.Adaptive.AcceleratedMutableHotness = true;
  MutationPlan Plan = makeScreenPlan(*P);
  VirtualMachine VM(*P, Opts);
  VM.setMutationPlan(&Plan);
  W->driveScaled(VM, Scale);
  return VM.metrics();
}

bool sameSimulatedRun(const RunMetrics &A, const RunMetrics &B) {
  return A.OutputHash == B.OutputHash && A.Insts == B.Insts &&
         A.Invocations == B.Invocations && A.ExecCycles == B.ExecCycles &&
         A.CompileCycles == B.CompileCycles &&
         A.SpecialCompileCycles == B.SpecialCompileCycles &&
         A.GcCycles == B.GcCycles && A.MutationCycles == B.MutationCycles &&
         A.TotalCycles == B.TotalCycles &&
         A.SpecialCompileRequests == B.SpecialCompileRequests;
}

} // namespace

int main(int argc, char **argv) {
  bool CheckOnly = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--check") == 0)
      CheckOnly = true;
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[I]);
      return 1;
    }
  }
  const double Scale = CheckOnly ? 0.05 : 0.25;

  printHeader("compile-pipeline", "Content-keyed specialization cache");
  bool Ok = true;

  RunMetrics JbbOff = runJbbScreens(/*Cache=*/false, Scale);
  RunMetrics JbbOn = runJbbScreens(/*Cache=*/true, Scale);
  double HitRate =
      JbbOn.SpecialCompileRequests
          ? 100.0 * JbbOn.SpecialCacheHits / JbbOn.SpecialCompileRequests
          : 0.0;
  std::printf("SPECjbb2000-like, shared-screen plan, scale %.2f:\n", Scale);
  std::printf("  cache off: %u requests -> %u compiled bodies, %zu special "
              "bytes\n",
              JbbOff.SpecialCompileRequests, JbbOff.SpecialCompiles,
              JbbOff.SpecialCodeBytes);
  std::printf("  cache on:  %u requests -> %u compiled bodies, %zu special "
              "bytes (%u deduped, %.1f%% hit rate)\n",
              JbbOn.SpecialCompileRequests, JbbOn.SpecialCompiles,
              JbbOn.SpecialCodeBytes, JbbOn.SpecialCacheHits, HitRate);
  if (!sameSimulatedRun(JbbOff, JbbOn)) {
    std::printf("  MISMATCH: the cache changed the simulated jbb run\n");
    Ok = false;
  }
  if (JbbOn.SpecialCacheHits == 0) {
    std::printf("  MISMATCH: expected >0 specialization-cache hits\n");
    Ok = false;
  }
  if (JbbOn.SpecialCodeBytes >= JbbOff.SpecialCodeBytes) {
    std::printf("  MISMATCH: cache did not reduce special code bytes\n");
    Ok = false;
  }

  // --- BENCH_compile.json ---------------------------------------------------
  JsonWriter J;
  J.beginObject();
  J.field("benchmark", "compile_pipeline");
  J.field("scale", Scale);
  J.beginArray("jbb_screen_cache");
  for (const RunMetrics *M : {&JbbOff, &JbbOn}) {
    J.beginArrayObject();
    J.field("spec_cache", M == &JbbOn);
    J.field("special_compile_requests",
            static_cast<uint64_t>(M->SpecialCompileRequests));
    J.field("special_compiles", static_cast<uint64_t>(M->SpecialCompiles));
    J.field("special_cache_hits", static_cast<uint64_t>(M->SpecialCacheHits));
    J.field("special_code_bytes", static_cast<uint64_t>(M->SpecialCodeBytes));
    J.field("total_cycles", M->TotalCycles);
    J.endObject();
  }
  J.endArray();
  J.field("cache_hit_rate_percent", HitRate);
  J.field("equivalent", Ok);
  J.endObject();
  J.writeFile("BENCH_compile.json");

  std::printf("\n%s (BENCH_compile.json written)\n",
              Ok ? "Cache off and on simulate identically."
                 : "EQUIVALENCE FAILURE");
  return Ok ? 0 : 1;
}
