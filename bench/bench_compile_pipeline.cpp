//===-- bench/bench_compile_pipeline.cpp - Background compilation bench -------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// Host-side benchmark of the asynchronous compile pipeline and the
// content-keyed specialization cache (docs/compile_pipeline.md).
//
// Part A measures the *activation pause* of the fully-online pipeline on
// SalaryDB: the longest single OnlineMutationController::poll() call, which
// is the one that assembles the plan and recompiles the hot mutable methods
// with one specialized version per hot state. With background compilation
// the optimization work of those compiles leaves the pause and is paid
// later, off the application thread.
//
// Part B measures the specialization cache on a SPECjbb2000-like run with a
// DisplayScreen plan holding two hot states that differ only in `rows`:
// putText reads only `cols`, so its two specials collapse to one compiled
// body (paper Figure 7's screens, where distinct screen states are often
// indistinguishable to a given method).
//
// Like bench_micro_dispatch this measures *real* time: simulated cycle
// counts, instruction counts, and the output hash must be bit-identical in
// every configuration, and that invariant is checked on every run. Results
// go to stdout and, machine-readable, to BENCH_compile.json.
//
// Flags: --iters=N  (SalaryDB batches per online run, default 500)
//        --repeat=R (timing repetitions, min taken; default 5)
//        --check    (small CI-friendly mode; equivalence + cache-hit
//                    assertions only, no speedup expectations; for ctest)
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "core/VM.h"
#include "online/OnlineController.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace dchm;
using namespace dchm::bench;

namespace {

struct PipelineConfig {
  const char *Name;
  bool Async;
  unsigned Threads;
  bool Cache;
};

const PipelineConfig Configs[] = {
    {"sync", false, 1, false},
    {"sync+cache", false, 1, true},
    {"async-1", true, 1, true},
    {"async-2-default", true, 2, true},
    {"async-4", true, 4, true},
    {"async-4-nocache", true, 4, false},
};
constexpr size_t DefaultCfgIdx = 3; ///< async-2-default, the VM's default

VMOptions optionsFor(const PipelineConfig &C) {
  VMOptions Opts;
  Opts.AsyncCompile = C.Async;
  Opts.CompileThreads = C.Threads;
  Opts.SpecializationCache = C.Cache;
  return Opts;
}

//===----------------------------------------------------------------------===//
// Part A: SalaryDB online activation pause
//===----------------------------------------------------------------------===//

struct OnlineResult {
  RunMetrics Metrics;
  double ActivationPauseSec = 0.0; ///< longest single poll (the activation)
  double TotalWallSec = 0.0;
};

OnlineResult runSalaryDbOnline(const PipelineConfig &C, int Batches) {
  auto W = makeSalaryDb();
  auto P = W->buildProgram();
  VirtualMachine VM(*P, optionsFor(C));
  OnlineMutationController::Config Cfg;
  Cfg.Analysis.HotStateMinFraction = 0.05;
  OnlineMutationController Ctl(VM, Cfg);
  ProgramIds Ids(*P);

  Timer Total;
  VM.call(Ids.method("TestDriver", "init"), {valueI(400)});
  MethodId RunBatch = Ids.method("TestDriver", "runBatch");
  OnlineResult R;
  for (int B = 0; B < Batches; ++B) {
    VM.call(RunBatch, {valueI(4)});
    Timer Poll;
    Ctl.poll();
    R.ActivationPauseSec = std::max(R.ActivationPauseSec, Poll.seconds());
  }
  VM.call(Ids.method("TestDriver", "checkSum"), {});
  R.TotalWallSec = Total.seconds();
  R.Metrics = VM.metrics();
  return R;
}

//===----------------------------------------------------------------------===//
// Part B: SPECjbb2000-like run with a shared-screen specialization plan
//===----------------------------------------------------------------------===//

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

RunMetrics runJbbScreens(const PipelineConfig &C, double Scale) {
  auto W = makeJbb(JbbVariant::Jbb2000);
  auto P = W->buildProgram();
  VMOptions Opts = optionsFor(C);
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

//===----------------------------------------------------------------------===//

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
  int Batches = 500;
  int Repeat = 5;
  bool CheckOnly = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--iters=", 8) == 0)
      Batches = std::atoi(argv[I] + 8);
    else if (std::strncmp(argv[I], "--repeat=", 9) == 0)
      Repeat = std::atoi(argv[I] + 9);
    else if (std::strcmp(argv[I], "--check") == 0)
      CheckOnly = true;
  }
  if (CheckOnly)
    Repeat = std::min(Repeat, 2);
  const double JbbScale = CheckOnly ? 0.05 : 0.25;

  printHeader("compile-pipeline",
              "Background compilation pipeline and specialization cache");
  bool Ok = true;

  // --- Part A: activation pause ------------------------------------------
  std::printf("SalaryDB fully-online, %d batches, best of %d runs:\n", Batches,
              Repeat);
  std::printf("  %-16s %14s %12s %10s %8s %8s\n", "config", "activation-us",
              "total-ms", "requests", "compiles", "hits");
  std::vector<OnlineResult> Best(std::size(Configs));
  for (size_t I = 0; I < std::size(Configs); ++I) {
    for (int R = 0; R < Repeat; ++R) {
      OnlineResult Res = runSalaryDbOnline(Configs[I], Batches);
      if (R == 0 || Res.ActivationPauseSec < Best[I].ActivationPauseSec)
        Best[I] = Res;
    }
    const RunMetrics &M = Best[I].Metrics;
    std::printf("  %-16s %14.1f %12.2f %10u %8u %8u\n", Configs[I].Name,
                Best[I].ActivationPauseSec * 1e6, Best[I].TotalWallSec * 1e3,
                M.SpecialCompileRequests, M.SpecialCompiles,
                M.SpecialCacheHits);
    if (!sameSimulatedRun(M, Best[0].Metrics)) {
      std::printf("  MISMATCH: %s diverges from sync simulated run\n",
                  Configs[I].Name);
      Ok = false;
    }
  }
  double PauseSync = Best[0].ActivationPauseSec;
  double PauseAsync = Best[DefaultCfgIdx].ActivationPauseSec;
  double PauseReduction =
      PauseSync > 0.0 ? 100.0 * (1.0 - PauseAsync / PauseSync) : 0.0;
  std::printf("  activation pause sync -> async-2 (default): %.1f us -> "
              "%.1f us (%+.1f%%)\n\n",
              PauseSync * 1e6, PauseAsync * 1e6, -PauseReduction);

  // --- Part B: specialization cache on jbb screens -------------------------
  RunMetrics JbbOff = runJbbScreens(Configs[0], JbbScale);       // sync
  RunMetrics JbbOn = runJbbScreens(Configs[1], JbbScale);        // sync+cache
  RunMetrics JbbAsyncOn = runJbbScreens(Configs[DefaultCfgIdx], JbbScale);
  double HitRate =
      JbbOn.SpecialCompileRequests
          ? 100.0 * JbbOn.SpecialCacheHits / JbbOn.SpecialCompileRequests
          : 0.0;
  std::printf("SPECjbb2000-like, shared-screen plan, scale %.2f:\n", JbbScale);
  std::printf("  cache off: %u requests -> %u compiled bodies, %zu special "
              "bytes\n",
              JbbOff.SpecialCompileRequests, JbbOff.SpecialCompiles,
              JbbOff.SpecialCodeBytes);
  std::printf("  cache on:  %u requests -> %u compiled bodies, %zu special "
              "bytes (%u deduped, %.1f%% hit rate)\n",
              JbbOn.SpecialCompileRequests, JbbOn.SpecialCompiles,
              JbbOn.SpecialCodeBytes, JbbOn.SpecialCacheHits, HitRate);
  if (!sameSimulatedRun(JbbOff, JbbOn) || !sameSimulatedRun(JbbOff, JbbAsyncOn)) {
    std::printf("  MISMATCH: cache/async changed the simulated jbb run\n");
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
  J.field("batches", static_cast<int64_t>(Batches));
  J.field("repeat", static_cast<int64_t>(Repeat));
  J.beginArray("activation");
  for (size_t I = 0; I < std::size(Configs); ++I) {
    const RunMetrics &M = Best[I].Metrics;
    J.beginArrayObject();
    J.field("config", Configs[I].Name);
    J.field("async", Configs[I].Async);
    J.field("threads", static_cast<int64_t>(Configs[I].Threads));
    J.field("spec_cache", Configs[I].Cache);
    J.field("activation_pause_us", Best[I].ActivationPauseSec * 1e6);
    J.field("total_wall_ms", Best[I].TotalWallSec * 1e3);
    J.field("special_compile_requests",
            static_cast<uint64_t>(M.SpecialCompileRequests));
    J.field("special_compiles", static_cast<uint64_t>(M.SpecialCompiles));
    J.field("special_cache_hits", static_cast<uint64_t>(M.SpecialCacheHits));
    J.field("total_cycles", M.TotalCycles);
    J.field("output_hash", M.OutputHash);
    J.endObject();
  }
  J.endArray();
  J.field("activation_pause_reduction_percent", PauseReduction);
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
              Ok ? "All configurations simulate identically."
                 : "EQUIVALENCE FAILURE");
  return Ok ? 0 : 1;
}
