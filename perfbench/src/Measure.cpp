//===-- perfbench/src/Measure.cpp - Clocks, spans and layer counters ----------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

using namespace dchm;

namespace perfbench {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LayerCounters LayerCounters::read(VirtualMachine &VM) {
  LayerCounters C;
  for (unsigned T = 0; T < VM.mutatorThreads(); ++T) {
    const ExecStats &E = VM.interp(T).stats();
    C.Insts += E.Insts;
    C.Invocations += E.Invocations;
    C.VirtualCalls += E.VirtualCalls;
    C.InterfaceCalls += E.InterfaceCalls;
    C.StatePatchHits += E.StatePatchHits;
    C.ExecCycles += E.Cycles;
  }
  MutationStats M = VM.mutation().stats();
  C.TibSwings = M.ObjectTibSwings;
  C.CodePointerUpdates = M.CodePointerUpdates;
  C.StateMatches = M.StateMatches;
  C.StateMisses = M.StateMisses;
  C.MutationCycles = M.ExtraCycles;
  C.Evictions = M.StateEvictions;
  const AdaptiveStats &A = VM.adaptive().stats();
  C.InitialCompiles = A.InitialCompiles;
  C.Recompilations = A.Recompilations;
  const CompilerStats &OC = VM.compiler().stats();
  for (int L = 0; L < 3; ++L)
    C.CompilesOpt[L] = OC.CompilesAtLevel[L];
  C.SpecialCompiles = OC.SpecialCompiles;
  C.SpecialRequests = OC.SpecialCompileRequests;
  C.SpecialCacheHits = OC.SpecialCacheHits;
  C.CompileCycles = OC.TotalCompileCycles;
  C.CodeBytes = OC.TotalCodeBytes;
  const PipelineStats &PS = VM.compiler().pipeline().stats();
  C.Enqueued = PS.Enqueued;
  C.InlineRuns = PS.InlineRuns;
  C.UrgentWaits = PS.UrgentWaits;
  C.Boosts = PS.Boosts;
  C.FailedAttempts = PS.FailedAttempts;
  C.Retries = PS.Retries;
  C.Quarantines = PS.Quarantines;
  const HeapStats &H = VM.heap().stats();
  C.GcCount = H.GcCount;
  C.GcCycles = H.GcCycles;
  C.BytesAllocated = H.BytesAllocated;
  C.ObjectsAllocated = H.ObjectsAllocated;
  C.PeakBytes = H.PeakBytes;
  C.Rendezvous = VM.safepoints().rendezvousCount();
  C.TotalCycles = VM.totalCycles();
  return C;
}

// The field list below drives delta/add/exactFields so the three can never
// disagree about which counters exist.
#define PERFBENCH_SUMMED_FIELDS(X)                                             \
  X(Insts) X(Invocations) X(VirtualCalls) X(InterfaceCalls)                    \
  X(StatePatchHits) X(ExecCycles) X(TibSwings) X(CodePointerUpdates)           \
  X(StateMatches) X(StateMisses) X(MutationCycles) X(Evictions)                \
  X(InitialCompiles) X(Recompilations) X(SpecialCompiles)                      \
  X(SpecialRequests) X(SpecialCacheHits) X(CompileCycles) X(CodeBytes)        \
  X(Enqueued) X(InlineRuns) X(UrgentWaits) X(Boosts) X(FailedAttempts)         \
  X(Retries)                                                                   \
  X(Quarantines) X(GcCount) X(GcCycles) X(BytesAllocated)                      \
  X(ObjectsAllocated) X(Rendezvous) X(TotalCycles)

LayerCounters LayerCounters::delta(const LayerCounters &After,
                                   const LayerCounters &Before) {
  LayerCounters D = After;
#define X(F) D.F = After.F - Before.F;
  PERFBENCH_SUMMED_FIELDS(X)
#undef X
  for (int L = 0; L < 3; ++L)
    D.CompilesOpt[L] = After.CompilesOpt[L] - Before.CompilesOpt[L];
  return D;
}

void LayerCounters::add(const LayerCounters &O) {
#define X(F) F += O.F;
  PERFBENCH_SUMMED_FIELDS(X)
#undef X
  for (int L = 0; L < 3; ++L)
    CompilesOpt[L] += O.CompilesOpt[L];
  PeakBytes = std::max(PeakBytes, O.PeakBytes);
}

std::vector<std::pair<std::string, uint64_t>>
LayerCounters::exactFields() const {
  return {{"exec.insts", Insts},
          {"exec.invocations", Invocations},
          {"exec.virtual_calls", VirtualCalls},
          {"exec.interface_calls", InterfaceCalls},
          {"exec.state_patch_hits", StatePatchHits},
          {"exec.sim_cycles", ExecCycles},
          {"mutation.tib_swings", TibSwings},
          {"mutation.code_pointer_updates", CodePointerUpdates},
          {"mutation.state_matches", StateMatches},
          {"mutation.state_misses", StateMisses},
          {"mutation.sim_cycles", MutationCycles},
          {"mutation.evictions", Evictions},
          {"adaptive.initial_compiles", InitialCompiles},
          {"adaptive.recompilations", Recompilations},
          {"compiler.compiles_opt0", CompilesOpt[0]},
          {"compiler.compiles_opt1", CompilesOpt[1]},
          {"compiler.compiles_opt2", CompilesOpt[2]},
          {"compiler.special_compiles", SpecialCompiles},
          {"compiler.special_requests", SpecialRequests},
          {"compiler.special_cache_hits", SpecialCacheHits},
          {"compiler.sim_cycles", CompileCycles},
          {"compiler.code_bytes", CodeBytes},
          {"heap.gc_count", GcCount},
          {"heap.gc_sim_cycles", GcCycles},
          {"heap.bytes_allocated", BytesAllocated},
          {"heap.objects_allocated", ObjectsAllocated},
          {"heap.peak_bytes", PeakBytes},
          {"sim_cycles", TotalCycles}};
}

// --- Tracer -------------------------------------------------------------------

Tracer::Tracer(bool Enabled, unsigned Threads)
    : On(Enabled), Origin(nowNs()), Buffers(Threads) {}

int Tracer::begin(unsigned Tid, const char *Name, int64_t Op) {
  if (!On)
    return -1;
  Buffer &B = Buffers[Tid];
  if (B.Spans.size() >= MaxSpans) {
    ++B.Dropped;
    B.Open.push_back(-1);
    return -1;
  }
  int Parent = -1;
  for (size_t I = B.Open.size(); I > 0; --I)
    if (B.Open[I - 1] >= 0) {
      Parent = B.Open[I - 1];
      break;
    }
  // A span inherits the op id of the span that caused it.
  if (Op < 0 && Parent >= 0)
    Op = B.Spans[static_cast<size_t>(Parent)].Op;
  B.Spans.push_back({Name, nowNs(), 0, Parent, Op, {}});
  int H = static_cast<int>(B.Spans.size() - 1);
  B.Open.push_back(H);
  return H;
}

void Tracer::end(unsigned Tid, int H, std::string Args) {
  if (!On)
    return;
  Buffer &B = Buffers[Tid];
  if (!B.Open.empty())
    B.Open.pop_back();
  if (H < 0)
    return;
  Span &S = B.Spans[static_cast<size_t>(H)];
  S.End = nowNs();
  S.Args = std::move(Args);
}

size_t Tracer::spanCount() const {
  size_t N = 0;
  for (const Buffer &B : Buffers)
    N += B.Spans.size();
  return N;
}

size_t Tracer::dropped() const {
  size_t N = 0;
  for (const Buffer &B : Buffers)
    N += B.Dropped;
  return N;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", F);
  bool First = true;
  for (size_t Tid = 0; Tid < Buffers.size(); ++Tid) {
    const Buffer &B = Buffers[Tid];
    for (size_t I = 0; I < B.Spans.size(); ++I) {
      const Span &S = B.Spans[I];
      int64_t End = S.End ? S.End : S.Start;
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"op\":%lld%s%s}}",
                   First ? "" : ",", S.Name, Tid,
                   static_cast<double>(S.Start - Origin) / 1e3,
                   static_cast<double>(End - S.Start) / 1e3, I, S.Parent,
                   static_cast<long long>(S.Op), S.Args.empty() ? "" : ",",
                   S.Args.c_str());
      First = false;
    }
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

// --- Statistics ---------------------------------------------------------------

double percentile(std::vector<int64_t> &Samples, double Pct) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = std::ceil(Pct / 100.0 * static_cast<double>(Samples.size()));
  size_t Idx = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return static_cast<double>(Samples[std::min(Idx, Samples.size() - 1)]);
}

double tailPercentile(size_t N) {
  if (N <= 10)
    return 50.0;
  double P = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(N)));
  return std::clamp(P, 50.0, 99.0);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

} // namespace perfbench
