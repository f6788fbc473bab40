//===-- perfbench/src/main.cpp - The MiniVM benchmark driver ------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// Runs one workload and prints its metrics, one `metric <name> <value>
// <unit>` line each, then a `config` line describing what was measured, and
// as the last line one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and every call the benchmark makes into a layer is
// recorded as a span and written to --trace-out as Chrome trace-event JSON.
//
// Usage: dchm_perfbench --workload <name> [--seed N] [--seconds S]
//                       [--trace 0|1] [--trace-out FILE] [--pins FILE]
//                       [--revision REV] [--reference-only]
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TraceOut;
  std::string Pins;
  std::string Revision = "unknown";
  bool ReferenceOnly = false;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "dchm_perfbench: %s\nusage: dchm_perfbench --workload <name> "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] "
               "[--pins FILE] [--revision REV] "
               "[--reference-only]\n",
               Msg);
  std::exit(2);
}

/// Parses an unsigned integer, rejecting junk instead of reading it as 0.
uint64_t parseUnsigned(const char *Flag, const std::string &S) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (S.empty() || *End || errno || S[0] == '-')
    usage((std::string("bad value for ") + Flag + ": " + S).c_str());
  return V;
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string F = Argv[I];
    if (F == "--reference-only") {
      A.ReferenceOnly = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + F).c_str());
    std::string V = Argv[++I];
    if (F == "--workload")
      A.Workload = V;
    else if (F == "--seed")
      A.Seed = parseUnsigned("--seed", V);
    else if (F == "--seconds") {
      char *End = nullptr;
      A.Seconds = std::strtod(V.c_str(), &End);
      if (*End || !(A.Seconds > 0.0 && A.Seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    } else if (F == "--trace")
      A.Trace = parseUnsigned("--trace", V) != 0;
    else if (F == "--trace-out")
      A.TraceOut = V;
    else if (F == "--pins")
      A.Pins = V;
    else if (F == "--revision")
      A.Revision = V;
    else
      usage(("unknown flag " + F).c_str());
  }
  if (A.Workload.empty())
    usage("--workload is required");
  return A;
}

/// Pinned reference values for (workload, seed): `key=value` pairs from
/// the pins file. Empty when the pair is not pinned.
std::vector<std::pair<std::string, uint64_t>>
readPins(const std::string &Path, const std::string &Workload, uint64_t Seed) {
  std::vector<std::pair<std::string, uint64_t>> Out;
  std::ifstream In(Path);
  if (!In) {
    if (!Path.empty())
      std::fprintf(stderr, "dchm_perfbench: cannot read pins file %s\n",
                   Path.c_str());
    return Out;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream SS(Line);
    std::string Name, KV;
    uint64_t S = 0;
    if (!(SS >> Name >> S) || Name != Workload || S != Seed)
      continue;
    while (SS >> KV) {
      size_t Eq = KV.find('=');
      if (Eq == std::string::npos)
        continue;
      Out.push_back({KV.substr(0, Eq),
                     std::strtoull(KV.c_str() + Eq + 1, nullptr, 0)});
    }
  }
  return Out;
}

/// The exact fingerprint of a reference window: every simulated counter,
/// the compiled code size and the online activation cycle.
std::vector<std::pair<std::string, uint64_t>> fingerprint(const Window &W) {
  auto F = W.Layers.exactFields();
  F.push_back({"code_bytes", W.CodeBytes});
  F.push_back({"online.activation_cycle", W.ActivationCycle});
  return F;
}

/// Set-ups per run; setup_s is their median.
constexpr unsigned Setups = 5;

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the launching process's peak, which survives exec.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0.0;
}

/// Throughput robust to short host stalls: ops are grouped by completion
/// time into 100 ms buckets, each bucket's throughput is its op count over
/// its ops' busy time (divided by the mutator count, which run
/// concurrently), and the median bucket is reported.
double opsPerSecond(const std::vector<int64_t> &EndNs,
                    const std::vector<int64_t> &OpNs, unsigned Mutators) {
  constexpr int64_t BucketNs = 100'000'000;
  if (EndNs.empty())
    return 0.0;
  int64_t T0 = *std::min_element(EndNs.begin(), EndNs.end());
  std::vector<std::pair<uint64_t, int64_t>> Buckets; // (ops, busy ns)
  for (size_t I = 0; I < EndNs.size(); ++I) {
    size_t B = static_cast<size_t>((EndNs[I] - T0) / BucketNs);
    if (B >= Buckets.size())
      Buckets.resize(B + 1);
    Buckets[B].first += 1;
    Buckets[B].second += OpNs[I];
  }
  std::vector<double> Rates;
  for (auto &[Ops, Busy] : Buckets)
    if (Ops && Busy)
      Rates.push_back(static_cast<double>(Ops) * Mutators * 1e9 /
                      static_cast<double>(Busy));
  return median(Rates);
}

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
}

double medianNs(std::vector<int64_t> V) {
  std::vector<double> D(V.begin(), V.end());
  return median(D);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  Tracer Tr(A.Trace, MaxMutators);
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, A.Seed, Tr);
  if (!W)
    usage(("unknown workload " + A.Workload).c_str());

  bool Correct = true;
  std::vector<std::string> Problems;

  // The oracle: one reference unit on a mutation-off VM. Pinned values (for
  // the default seeds) are checked against it, so the reference never comes
  // only from the mutated VM under test.
  uint64_t RefHash;
  {
    Scope S(Tr, "bench:mutation_off_reference");
    RefHash = W->mutationOffReference();
  }
  if (A.ReferenceOnly) {
    std::printf("%s %" PRIu64 " hash=0x%016" PRIx64 "\n", A.Workload.c_str(),
                A.Seed, RefHash);
    return 0;
  }
  W->setExpected(RefHash);
  auto Pins = readPins(A.Pins, A.Workload, A.Seed);
  for (auto &[Key, Val] : Pins)
    if (Key == "hash" && Val != RefHash) {
      Correct = false;
      Problems.push_back("mutation-off output hash differs from the pin");
    }

  // Set up several times; each set-up runs the reference window, whose
  // simulated counters must repeat exactly at one mutator. The last set-up
  // continues into the timed phase.
  std::vector<double> SetupS, OfflineS, OlcS, InstallS;
  uint64_t HotStates = 0;
  std::vector<std::pair<std::string, uint64_t>> Exact;
  Window Ref, Timed;
  uint64_t Attempted = 0, Failed = 0;
  for (unsigned R = 0; R < Setups; ++R) {
    SetupTimes ST;
    int64_t T0 = nowNs();
    W->setUp(ST);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    OfflineS.push_back(ST.OfflineS);
    OlcS.push_back(ST.OlcS);
    InstallS.push_back(ST.InstallS);
    HotStates = ST.HotStates;

    Ref = Window();
    W->reference(Ref);
    Attempted += Ref.Attempted;
    Failed += Ref.Failed;
    auto FP = fingerprint(Ref);
    if (R == 0) {
      Exact = FP;
    } else if (W->mutators() == 1) {
      for (size_t I = 0; I < FP.size(); ++I)
        if (FP[I].second != Exact[I].second) {
          Correct = false;
          Problems.push_back("exact counter " + FP[I].first + " drifted: " +
                             std::to_string(Exact[I].second) + " vs " +
                             std::to_string(FP[I].second));
        }
    }
  }
  for (auto &[Key, Val] : Pins)
    for (auto &[Name, Got] : Exact)
      if (Key == Name && Val != Got) {
        Correct = false;
        Problems.push_back("exact counter " + Name + " differs from the pin: " +
                           std::to_string(Got) + " vs pinned " +
                           std::to_string(Val));
      }

  // Peak memory of the set-ups and the reference windows: the timed phase
  // repeats the same work, and its length (which the host's speed sets)
  // must not move the figure.
  double PeakRss = peakRssMb();

  // The timed phase. A traced run spends its first half untraced, so the
  // same invocation reports host wall time with and without tracing.
  int64_t Span = static_cast<int64_t>(A.Seconds * 1e9);
  Window Traced;
  if (A.Trace) {
    Tr.setEnabled(false);
    W->timed(nowNs() + Span / 2, Timed);
    Tr.setEnabled(true);
    W->timed(nowNs() + Span / 2, Traced);
  } else {
    W->timed(nowNs() + Span, Timed);
  }
  DrainTimes Drain = W->drain();
  for (const Window *X : {&Timed, &Traced}) {
    Attempted += X->Attempted;
    Failed += X->Failed;
  }
  if (Failed) {
    Correct = false;
    Problems.push_back(std::to_string(Failed) + " op(s) failed");
  }

  // Simulated per-op cost over the reference window: exact at one mutator.
  std::vector<int64_t> OpCycles = Ref.OpCycles;
  double SimP50 = percentile(OpCycles, 50.0);
  double SimP99 = percentile(OpCycles, 99.0);
  // Host wall time over the untraced timed ops.
  std::vector<int64_t> Lat = Timed.OpNs;
  size_t Samples = Lat.size();
  double TailPct = tailPercentile(Samples);
  double OpsPerS = opsPerSecond(Timed.OpEndNs, Lat, W->mutators());
  double P50 = percentile(Lat, 50.0) / 1e3;
  double Tail = percentile(Lat, TailPct) / 1e3;
  std::vector<Metric> Wall = {{"wall.ops_per_s", OpsPerS, "1/s"},
                              {"wall.op_p50_us", P50, "us"},
                              {"wall.op_p99_us", Tail, "us"}};

  std::vector<Metric> M;
  if (!A.Trace) {
    M = {{"setup_s", median(SetupS), "s"},
         {"op_sim_cycles_p50", SimP50, "cycles"},
         {"op_sim_cycles_p99", SimP99, "cycles"},
         {"sim_cycles", static_cast<double>(Ref.Layers.TotalCycles), "cycles"},
         {"code_bytes", static_cast<double>(Ref.CodeBytes), "bytes"},
         {"peak_rss_mb", PeakRss, "MB"}};
  } else {
    const LayerCounters &L = Ref.Layers;
    auto U = [](uint64_t V) { return static_cast<double>(V); };
    std::vector<int64_t> Stops = Traced.StopNs;
    std::vector<int64_t> Longest = Timed.LongestPollNs;
    int64_t PollTotal = 0;
    for (int64_t P : Timed.PollNs)
      PollTotal += P;
    // The online workload installs its plan inside poll(): its install wall
    // is the activating poll, not a set-up step.
    std::vector<int64_t> Activations = Ref.ActivationPollNs;
    Activations.insert(Activations.end(), Timed.ActivationPollNs.begin(),
                       Timed.ActivationPollNs.end());
    double InstallMedian =
        Activations.empty() ? median(InstallS) : medianNs(Activations) / 1e9;
    M = {
        {"exec.insts", U(L.Insts), "count"},
        {"exec.invocations", U(L.Invocations), "count"},
        {"exec.virtual_calls", U(L.VirtualCalls), "count"},
        {"exec.interface_calls", U(L.InterfaceCalls), "count"},
        {"exec.state_patch_hits", U(L.StatePatchHits), "count"},
        {"exec.sim_cycles", U(L.ExecCycles), "cycles"},
        {"exec.insts_per_s",
         static_cast<double>(Timed.Layers.Insts) * 1e9 /
             static_cast<double>(Timed.BusyNs),
         "1/s"},
        {"mutation.tib_swings", U(L.TibSwings), "count"},
        {"mutation.code_pointer_updates", U(L.CodePointerUpdates), "count"},
        {"mutation.state_match_ratio",
         ratio(L.StateMatches, L.StateMatches + L.StateMisses), "ratio"},
        {"mutation.state_checks", U(L.StateMatches + L.StateMisses), "count"},
        {"mutation.sim_cycles", U(L.MutationCycles), "cycles"},
        {"mutation.evictions", U(L.Evictions), "count"},
        {"mutation.install_s", InstallMedian, "s"},
        {"adaptive.initial_compiles", U(L.InitialCompiles), "count"},
        {"adaptive.recompilations", U(L.Recompilations), "count"},
        {"compiler.compiles_opt0", U(L.CompilesOpt[0]), "count"},
        {"compiler.compiles_opt1", U(L.CompilesOpt[1]), "count"},
        {"compiler.compiles_opt2", U(L.CompilesOpt[2]), "count"},
        {"compiler.special_compiles", U(L.SpecialCompiles), "count"},
        {"compiler.special_requests", U(L.SpecialRequests), "count"},
        {"compiler.spec_cache_hit_ratio",
         ratio(L.SpecialCacheHits, L.SpecialRequests), "ratio"},
        {"compiler.sim_cycles", U(L.CompileCycles), "cycles"},
        {"compiler.code_bytes", U(L.CodeBytes), "bytes"},
        {"compiler.pipeline.enqueued", U(L.Enqueued), "count"},
        {"compiler.pipeline.inline_runs", U(L.InlineRuns), "count"},
        {"compiler.pipeline.urgent_waits", U(L.UrgentWaits), "count"},
        {"compiler.pipeline.boosts", U(L.Boosts), "count"},
        {"compiler.pipeline.failed_attempts", U(L.FailedAttempts), "count"},
        {"compiler.pipeline.retries", U(L.Retries), "count"},
        {"compiler.pipeline.quarantines", U(L.Quarantines), "count"},
        {"compiler.sync_s", Drain.SyncS, "s"},
        {"analysis.offline_s", median(OfflineS), "s"},
        {"analysis.olc_s", median(OlcS), "s"},
        {"analysis.hot_states", U(HotStates), "count"},
        {"online.poll_s_total", static_cast<double>(PollTotal) / 1e9, "s"},
        {"online.activation_pause_us", medianNs(Longest) / 1e3, "us"},
        {"online.activation_cycle", U(Ref.ActivationCycle), "cycles"},
        {"heap.gc_count", U(L.GcCount), "count"},
        {"heap.gc_sim_cycles", U(L.GcCycles), "cycles"},
        {"heap.bytes_allocated", U(L.BytesAllocated), "bytes"},
        {"heap.objects_allocated", U(L.ObjectsAllocated), "count"},
        {"heap.peak_bytes", U(L.PeakBytes), "bytes"},
        {"heap.collect_us", Drain.CollectUs, "us"},
        {"safepoint.rendezvous", U(L.Rendezvous), "count"},
        {"safepoint.stop_us_p50", percentile(Stops, 50.0) / 1e3, "us"},
        {"safepoint.stop_us_p99",
         percentile(Stops, tailPercentile(Stops.size())) / 1e3, "us"},
        {"traced.ops_per_s",
         opsPerSecond(Traced.OpEndNs, Traced.OpNs, W->mutators()), "1/s"},
    };
    M.insert(M.end(), Wall.begin(), Wall.end());
  }

  for (const Metric &X : M)
    std::printf("metric %-36s %.6g %s\n", X.Name.c_str(), X.Value,
                X.Unit.c_str());
  // Host wall time is printed in both modes but declared only as a
  // per-layer metric: see WORKLOADS.md, "Host noise".
  if (!A.Trace)
    for (const Metric &X : Wall)
      std::printf("metric %-36s %.6g %s\n", X.Name.c_str(), X.Value,
                  X.Unit.c_str());
  std::printf("metric %-36s %.6g ratio\n", "error_rate",
              ratio(Failed, Attempted));
  std::printf("latency: %zu untraced timed-phase samples; wall.op_p99_us reports "
              "p%.0f (the highest percentile with >= 10 samples beyond it); "
              "%zu reference-window ops for op_sim_cycles_*\n",
              Samples, TailPct, OpCycles.size());
  for (const std::string &P : Problems)
    std::printf("FAILURE: %s\n", P.c_str());

  const VmConfig &C = W->config();
  std::printf(
      "config {\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"seconds\":%g,"
      "\"revision\":\"%s\",\"build_type\":\"%s\",\"nproc\":%ld,"
      "\"hardware_concurrency\":%u,\"threaded_dispatch\":%s,"
      "\"async_compile\":%s,\"compile_threads\":%u,\"mutators\":%u,"
      "\"op_size\":\"%s\",\"op_count\":%zu,\"setups\":%u,"
      "\"trace\":%s}\n",
      A.Workload.c_str(), A.Seed, A.Seconds, A.Revision.c_str(),
      PERFBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(),
      C.ThreadedDispatch ? "true" : "false",
      C.AsyncCompile ? "true" : "false", C.CompileThreads, C.Mutators,
      W->opSize().c_str(), Samples, Setups, A.Trace ? "true" : "false");

  if (A.Trace && !A.TraceOut.empty()) {
    if (Tr.write(A.TraceOut))
      std::printf("trace: %zu spans (%zu dropped) written to %s\n",
                  Tr.spanCount(), Tr.dropped(), A.TraceOut.c_str());
    else
      std::fprintf(stderr, "dchm_perfbench: cannot write %s\n",
                   A.TraceOut.c_str());
  }

  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted);
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < M.size(); ++I) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", M[I].Name.c_str(), M[I].Value,
                  M[I].Unit.c_str());
    Json += Buf;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
