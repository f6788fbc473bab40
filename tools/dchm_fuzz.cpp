//===-- tools/dchm_fuzz.cpp - Differential mutation fuzzer --------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// Differential fuzzer over generated MVM programs (testing/ProgramGen):
// every program runs with mutation off and on, asserting
//
//  - identical program output and result with mutation off and on (the
//    paper's transparency guarantee), and
//  - zero consistency-auditor violations in every run.
//
// Segmented programs (#!segments directive) are driven one segment at a
// time, retiring the mutation plan and later re-installing it at the
// directive-specified boundaries; output must still match the mutation-off
// run and the straight-line main() rendering.
//
// Failures serialize the offending program to fuzz-fail-<seed>.mvm, shrink
// it with the greedy delta-minimizer, and print a dchm_run replay line.
// Injection modes (--inject-skip-tib / --inject-skip-code /
// --inject-partial-retire) flip one MutationDebugFlags fault on and require
// the auditor to catch the break, replaying from the serialized artifact to
// prove reproduction. --malformed=<n> corrupts each generated program
// deterministically and asserts the toolchain returns diagnostics instead
// of aborting the process.
//
// --threads switches to the multi-mutator dimension: each program's
// Main.main runs once on context 0 (the classic phase), then Main.tmain —
// rendered by ProgramGen to obey the guest threading contract — runs on 1,
// 2, and 4 concurrent mutators against the same Program/Heap. Every
// mutator's output hash must equal the single-mutator reference, and the
// consistency auditor must stay clean in every run (docs/threads.md).
//
//   dchm_fuzz [--n=<programs>] [--seed=<base>] [--stride=<k>]
//             [--threads] [--inject-skip-tib] [--inject-skip-code]
//             [--inject-partial-retire] [--malformed=<n>]
//
// Counts must be positive integers; a malformed value, like an unknown
// flag, exits 1 with a diagnostic naming it.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "support/Parse.h"
#include "testing/ConsistencyAuditor.h"
#include "testing/ProgramGen.h"

#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

using namespace dchm;

namespace {

struct RunOutcome {
  bool Ok = false;
  std::string Error;
  std::string Output;
  int64_t Result = 0;
  RunMetrics M;
  uint64_t Violations = 0;
  std::string AuditReport;
  /// Objects sitting on special TIBs at the moment retirePlan ran (0 when
  /// the program is not segmented). Injection modes use it to decide
  /// whether a skipped retirement swing could even strand anything.
  uint64_t OnSpecialAtRetire = 0;
};

struct InjectFlags {
  bool SkipTibSwing = false;
  bool SkipCodePointerUpdate = false;
  bool SkipRetireSwing = false;
  bool any() const {
    return SkipTibSwing || SkipCodePointerUpdate || SkipRetireSwing;
  }
};

RunOutcome runOne(const std::string &Source, bool Mutate, uint64_t Stride,
                  InjectFlags Inject) {
  RunOutcome Out;
  AssemblyResult R = assembleProgram(Source);
  if (!R.ok()) {
    Out.Error = "assembly failed: " + R.Error;
    return Out;
  }
  Program &P = *R.P;
  GenPlanInfo Gen;
  std::string Err;
  if (!ProgramGen::parsePlanDirectives(Source, P, Gen, Err)) {
    Out.Error = "plan directives failed: " + Err;
    return Out;
  }
  ClassId MainCls = P.findClass("Main");
  MethodId Entry =
      MainCls != NoClassId ? P.findMethod(MainCls, "main") : NoMethodId;
  if (Entry == NoMethodId) {
    Out.Error = "no Main.main";
    return Out;
  }

  VMOptions Opts;
  Opts.EnableMutation = Mutate && !Gen.Plan.empty();
  if (Gen.Opt1)
    Opts.Adaptive.Opt1Threshold = Gen.Opt1;
  if (Gen.Opt2)
    Opts.Adaptive.Opt2Threshold = Gen.Opt2;

  VirtualMachine VM(P, Opts);
  ConsistencyAuditor Auditor(VM, Stride);
  VM.setAuditHook(&Auditor);
  if (Opts.EnableMutation)
    VM.setMutationPlan(&Gen.Plan);
  VM.mutation().debugFlags().SkipTibSwing = Inject.SkipTibSwing;
  VM.mutation().debugFlags().SkipCodePointerUpdate =
      Inject.SkipCodePointerUpdate;
  VM.mutation().debugFlags().SkipRetireSwing = Inject.SkipRetireSwing;

  Value Result = valueI(0);
  if (Gen.Segments > 1) {
    // Drive the segments one by one (mutation off too, so both groups run
    // the same code path), retiring and re-installing the plan at the
    // directive boundaries when mutation is on. Segments communicate
    // through Main statics, so this is output-identical to main().
    std::vector<MethodId> Segs;
    for (int K = 0; K < Gen.Segments; ++K) {
      MethodId S = P.findMethod(MainCls, "seg" + std::to_string(K));
      if (S == NoMethodId) {
        Out.Error = "no Main.seg" + std::to_string(K);
        return Out;
      }
      Segs.push_back(S);
    }
    for (int K = 0; K < Gen.Segments; ++K) {
      Result = VM.call(Segs[static_cast<size_t>(K)], {});
      if (!Opts.EnableMutation)
        continue;
      if (K == Gen.RetireAfter) {
        VM.heap().forEachObject([&](Object *O) {
          if (!O->IsArray && O->Tib && O->Tib->isSpecial())
            ++Out.OnSpecialAtRetire;
        });
        VM.retireMutationPlan();
      }
      if (K == Gen.ReinstallAfter)
        VM.setMutationPlan(&Gen.Plan); // re-install migrates live objects
    }
  } else {
    Result = VM.call(Entry, {});
  }
  Auditor.auditNow("end of run"); // final pass after the last transition
  Out.M = VM.metrics();
  Out.Output = VM.interp().output();
  Out.Result = Result.I;
  Out.Violations = Auditor.violationCount();
  Out.AuditReport = Auditor.report();
  Out.Ok = true;
  return Out;
}

void writeArtifact(const std::string &Path, const std::string &Source) {
  std::ofstream Out(Path);
  Out << Source;
}

/// Deterministically damages a well-formed program: the corruption kind and
/// position come from the seed, so failures replay. The result may still be
/// valid (duplicating a comment line, say) — the assertion is only that the
/// toolchain answers with a diagnostic or a program, never an abort.
std::string corruptSource(const std::string &Source, Rng &R) {
  std::string S = Source;
  auto LineBounds = [&](size_t Pos, size_t &B, size_t &E) {
    size_t Nl = S.rfind('\n', Pos);
    B = Nl == std::string::npos ? 0 : Nl + 1;
    Nl = S.find('\n', Pos);
    E = Nl == std::string::npos ? S.size() : Nl + 1;
  };
  switch (R.nextBelow(6)) {
  case 0: { // drop a whole line (missing ret, missing field, ...)
    size_t B, E;
    LineBounds(R.nextBelow(S.size()), B, E);
    S.erase(B, E - B);
    break;
  }
  case 1: // truncate mid-token
    S.resize(R.nextBelow(S.size()));
    break;
  case 2: { // duplicate a line (redefinitions, duplicate labels)
    size_t B, E;
    LineBounds(R.nextBelow(S.size()), B, E);
    S.insert(B, S.substr(B, E - B));
    break;
  }
  case 3: { // bogus type token
    size_t P = S.find("i64");
    if (P != std::string::npos)
      S.replace(P, 3, "i6F");
    break;
  }
  case 4: { // garble a plan directive (assembles; directive parse must fail)
    size_t P = S.find("#!");
    if (P != std::string::npos)
      S.insert(P + 2, "zz-");
    break;
  }
  case 5: { // splice random bytes into the middle
    size_t P = R.nextBelow(S.size());
    S.insert(P, "\x01%%\xff @");
    break;
  }
  }
  return S;
}

/// --malformed mode: corrupt N generated programs and require the
/// assembler / directive parser to reject or accept them gracefully.
/// Surviving the loop without SIGABRT *is* the property under test.
int runMalformed(uint64_t N, uint64_t SeedBase) {
  uint64_t Rejected = 0, Accepted = 0;
  for (uint64_t I = 0; I < N; ++I) {
    uint64_t Seed = SeedBase + I;
    ProgramGen G(Seed);
    std::string Source = G.generate();
    Rng R(Seed * 2654435761ull + 17);
    std::string Corrupt = corruptSource(Source, R);
    AssemblyResult AR = assembleProgram(Corrupt);
    if (!AR.ok()) {
      if (AR.Error.empty()) {
        std::fprintf(stderr,
                     "FAIL seed=%llu: rejection carried no diagnostic\n",
                     static_cast<unsigned long long>(Seed));
        return 1;
      }
      ++Rejected;
      continue;
    }
    // Still assembled — the directive parser must also stay recoverable.
    GenPlanInfo Gen;
    std::string Err;
    ProgramGen::parsePlanDirectives(Corrupt, *AR.P, Gen, Err);
    ++Accepted;
  }
  std::printf("fuzz: %llu corrupted programs, %llu rejected with "
              "diagnostics, %llu still well-formed; no aborts\n",
              static_cast<unsigned long long>(N),
              static_cast<unsigned long long>(Rejected),
              static_cast<unsigned long long>(Accepted));
  return 0;
}

/// One multi-mutator run: Main.main on context 0, then Main.tmain on TN
/// concurrent mutators. Hashes[T] is mutator T's output hash over its own
/// tmain stream (context 0's main-phase output is cleared first).
struct ThreadedOutcome {
  bool Ok = false;
  std::string Error;
  std::vector<uint64_t> Hashes;
  uint64_t Violations = 0;
  std::string AuditReport;
};

ThreadedOutcome runThreaded(const std::string &Source, unsigned TN,
                            uint64_t Stride) {
  ThreadedOutcome Out;
  AssemblyResult R = assembleProgram(Source);
  if (!R.ok()) {
    Out.Error = "assembly failed: " + R.Error;
    return Out;
  }
  Program &P = *R.P;
  GenPlanInfo Gen;
  std::string Err;
  if (!ProgramGen::parsePlanDirectives(Source, P, Gen, Err)) {
    Out.Error = "plan directives failed: " + Err;
    return Out;
  }
  ClassId MainCls = P.findClass("Main");
  MethodId Entry =
      MainCls != NoClassId ? P.findMethod(MainCls, "main") : NoMethodId;
  MethodId TEntry =
      MainCls != NoClassId ? P.findMethod(MainCls, "tmain") : NoMethodId;
  if (Entry == NoMethodId || TEntry == NoMethodId) {
    Out.Error = "no Main.main / Main.tmain";
    return Out;
  }

  VMOptions Opts;
  Opts.EnableMutation = !Gen.Plan.empty();
  if (Gen.Opt1)
    Opts.Adaptive.Opt1Threshold = Gen.Opt1;
  if (Gen.Opt2)
    Opts.Adaptive.Opt2Threshold = Gen.Opt2;
  Opts.MutatorThreads = TN;

  VirtualMachine VM(P, Opts);
  ConsistencyAuditor Auditor(VM, Stride);
  VM.setAuditHook(&Auditor);
  if (Opts.EnableMutation)
    VM.setMutationPlan(&Gen.Plan);

  // Phase 1 — the classic workload on context 0, before any mutator thread
  // exists: swings states, compiles specials, sets the statics tmain may
  // read.
  VM.call(Entry, {});
  // Phase 2 — the thread-safe driver on TN concurrent mutators. Output
  // streams restart at the phase boundary so each hash covers tmain alone.
  for (unsigned T = 0; T < TN; ++T)
    VM.interp(T).clearOutput();
  VM.runMutators([&](unsigned T) { VM.callOn(T, TEntry, {}); });

  Out.Hashes.resize(TN);
  for (unsigned T = 0; T < TN; ++T)
    Out.Hashes[T] = VM.interp(T).outputHash();
  Auditor.auditNow("end of threaded run");
  Out.Violations = Auditor.violationCount();
  Out.AuditReport = Auditor.report();
  Out.Ok = true;
  return Out;
}

int reportFailure(ProgramGen &G, uint64_t Seed, const std::string &Source,
                  const std::string &Why,
                  const std::function<bool(const std::string &)> &StillFails);

/// --threads mode: per-thread hash equivalence against the single-mutator
/// reference at 2 and 4 mutators, auditor clean throughout.
int runThreadsDimension(uint64_t N, uint64_t SeedBase, uint64_t Stride) {
  uint64_t Runs = 0;
  for (uint64_t I = 0; I < N; ++I) {
    uint64_t Seed = SeedBase + I;
    ProgramGen G(Seed);
    std::string Source = G.generate();

    ThreadedOutcome Ref = runThreaded(Source, 1, Stride);
    ++Runs;
    std::string Why;
    if (!Ref.Ok)
      Why = Ref.Error;
    else if (Ref.Violations)
      Why = "auditor violations (1 mutator):\n" + Ref.AuditReport;
    for (unsigned TN : {2u, 4u}) {
      if (!Why.empty())
        break;
      ThreadedOutcome O = runThreaded(Source, TN, Stride);
      ++Runs;
      if (!O.Ok) {
        Why = O.Error;
      } else if (O.Violations) {
        Why = "auditor violations (" + std::to_string(TN) +
              " mutators):\n" + O.AuditReport;
      } else {
        for (unsigned T = 0; T < TN; ++T)
          if (O.Hashes[T] != Ref.Hashes[0]) {
            Why = "mutator " + std::to_string(T) + " of " +
                  std::to_string(TN) +
                  " diverged from the single-mutator tmain stream";
            break;
          }
      }
    }
    if (!Why.empty()) {
      return reportFailure(G, Seed, Source, Why,
                           [&](const std::string &S) {
                             ThreadedOutcome A = runThreaded(S, 1, Stride);
                             if (!A.Ok || A.Violations)
                               return true;
                             for (unsigned TN : {2u, 4u}) {
                               ThreadedOutcome B = runThreaded(S, TN, Stride);
                               if (!B.Ok || B.Violations)
                                 return true;
                               for (uint64_t H : B.Hashes)
                                 if (H != A.Hashes[0])
                                   return true;
                             }
                             return false;
                           });
    }
  }
  std::printf("fuzz: %llu programs, %llu runs, threads dimension {1,2,4}: "
              "all per-thread streams deterministic, auditor clean\n",
              static_cast<unsigned long long>(N),
              static_cast<unsigned long long>(Runs));
  return 0;
}

int reportFailure(ProgramGen &G, uint64_t Seed, const std::string &Source,
                  const std::string &Why,
                  const std::function<bool(const std::string &)> &StillFails) {
  std::string Path = "fuzz-fail-" + std::to_string(Seed) + ".mvm";
  writeArtifact(Path, Source);
  std::fprintf(stderr, "FAIL seed=%llu: %s\n  artifact: %s\n",
               static_cast<unsigned long long>(Seed), Why.c_str(),
               Path.c_str());
  std::string Min = G.minimize(StillFails);
  std::string MinPath = "fuzz-fail-" + std::to_string(Seed) + ".min.mvm";
  writeArtifact(MinPath, Min);
  std::fprintf(stderr,
               "  minimized: %s\n  replay: dchm_run exec %s "
               "--entry=Main.main --mutate --audit\n",
               MinPath.c_str(), MinPath.c_str());
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t N = 50, SeedBase = 1, Stride = 4, Malformed = 0;
  bool ThreadsDim = false;
  InjectFlags Inject;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--n=", 0) == 0)
      N = intFlag("--n", Argv[I] + 4, 1, LLONG_MAX);
    else if (A.rfind("--seed=", 0) == 0)
      SeedBase = intFlag("--seed", Argv[I] + 7, 0, LLONG_MAX);
    else if (A.rfind("--stride=", 0) == 0)
      Stride = intFlag("--stride", Argv[I] + 9, 1, LLONG_MAX);
    else if (A.rfind("--malformed=", 0) == 0)
      Malformed = intFlag("--malformed", Argv[I] + 12, 1, LLONG_MAX);
    else if (A == "--threads")
      ThreadsDim = true;
    else if (A == "--inject-skip-tib")
      Inject.SkipTibSwing = true;
    else if (A == "--inject-skip-code")
      Inject.SkipCodePointerUpdate = true;
    else if (A == "--inject-partial-retire")
      Inject.SkipRetireSwing = true;
    else {
      std::fprintf(stderr, "unknown flag %s\n", A.c_str());
      return 1;
    }
  }

  if (Malformed)
    return runMalformed(Malformed, SeedBase);
  if (ThreadsDim)
    return runThreadsDimension(N, SeedBase, Stride);

  uint64_t Runs = 0;
  for (uint64_t I = 0; I < N; ++I) {
    uint64_t Seed = SeedBase + I;
    ProgramGen G(Seed);
    std::string Source = G.generate();

    if (Inject.any()) {
      // Fault injection needs part I swings to actually happen, so skip
      // the static-only flavor for family 0 (no object ever swings there).
      if ((Inject.SkipTibSwing || Inject.SkipRetireSwing) &&
          G.model().Families[0].StaticOnlyPlan)
        continue;
      // A skipped retirement swing only strands something when the program
      // actually retires mid-run, i.e. is segmented.
      if (Inject.SkipRetireSwing && G.model().Segments <= 1)
        continue;
      // Prove the auditor catches the break *from the serialized artifact*:
      // write the program out, read it back, and run that byte stream.
      std::string Path = "fuzz-inject-" + std::to_string(Seed) + ".mvm";
      writeArtifact(Path, Source);
      std::ifstream In(Path);
      std::stringstream Ss;
      Ss << In.rdbuf();
      RunOutcome Broken = runOne(Ss.str(), /*Mutate=*/true, Stride, Inject);
      ++Runs;
      if (!Broken.Ok) {
        std::fprintf(stderr, "FAIL seed=%llu: %s\n",
                     static_cast<unsigned long long>(Seed),
                     Broken.Error.c_str());
        return 1;
      }
      if (Inject.SkipRetireSwing && Broken.OnSpecialAtRetire == 0) {
        // Nothing was on a special TIB when the plan retired, so the
        // skipped swing had nothing to strand: no violation expected.
        std::remove(Path.c_str());
        continue;
      }
      if (Broken.Violations == 0) {
        std::fprintf(stderr,
                     "FAIL seed=%llu: injected fault not caught by the "
                     "auditor (artifact: %s)\n",
                     static_cast<unsigned long long>(Seed), Path.c_str());
        return 1;
      }
      std::remove(Path.c_str());
      continue;
    }

    std::vector<RunOutcome> Base(2); // [0] = mutation off, [1] = on
    for (int Mut = 0; Mut < 2; ++Mut) {
      Base[Mut] = runOne(Source, Mut == 1, Stride, {});
      ++Runs;
      const RunOutcome &O = Base[Mut];
      std::string Why;
      if (!O.Ok)
        Why = O.Error;
      else if (O.Violations)
        Why = std::string("auditor violations (mutation ") +
              (Mut ? "on" : "off") + "):\n" + O.AuditReport;
      if (!Why.empty()) {
        bool M1 = Mut == 1;
        return reportFailure(G, Seed, Source, Why,
                             [&](const std::string &S) {
                               RunOutcome A = runOne(S, M1, Stride, {});
                               return !A.Ok || A.Violations != 0;
                             });
      }
    }
    // Transparency: mutation must not change what the program computes.
    if (Base[0].Output != Base[1].Output || Base[0].Result != Base[1].Result) {
      return reportFailure(
          G, Seed, Source,
          "mutation changed program output:\n  off: " + Base[0].Output +
              "\n  on:  " + Base[1].Output,
          [&](const std::string &S) {
            RunOutcome A = runOne(S, false, Stride, {});
            RunOutcome B = runOne(S, true, Stride, {});
            if (!A.Ok || !B.Ok)
              return true;
            return A.Output != B.Output || A.Result != B.Result;
          });
    }
  }
  std::printf("fuzz: %llu programs, %llu runs, %s: all consistent\n",
              static_cast<unsigned long long>(N),
              static_cast<unsigned long long>(Runs),
              Inject.any() ? "fault injection, mutation on"
                           : "1 config x mutation off/on");
  return 0;
}
