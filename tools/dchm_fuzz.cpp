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
// time, with the mutation plan installed after the first segment, into a
// heap that already holds objects; output must still match the
// mutation-off run and the straight-line main() rendering.
//
// Every run goes through testing/MvmRun, the harness `dchm_run exec`
// replays with. Failures serialize the offending program to
// fuzz-fail-<seed>.mvm, shrink it with the greedy delta-minimizer, and
// print a `dchm_run exec` replay line (a --threads artifact carries a
// `#!threads` directive, so exec replays it through the threads oracle).
// Injection modes (--inject-skip-tib / --inject-skip-code) flip one
// MutationDebugFlags fault on and require the auditor to catch the break,
// replaying from the serialized artifact to prove reproduction (segmented
// programs run as one Main.main there). --malformed=<n> corrupts each
// generated program deterministically and asserts the toolchain returns
// diagnostics instead of aborting the process.
//
// --threads switches to the multi-mutator dimension: each program's
// Main.main runs once on context 0 (the classic phase), then Main.tmain —
// rendered by ProgramGen to obey the guest threading contract — runs on 1,
// 2, and 4 concurrent mutators against the same Program/Heap. Every
// mutator's output hash must equal the single-mutator reference, and the
// consistency auditor must stay clean in every run (docs/threads.md).
//
//   dchm_fuzz [--n=<programs>] [--seed=<base>] [--stride=<k>]
//   dchm_fuzz --threads [--n=<programs>] [--seed=<base>] [--stride=<k>]
//   dchm_fuzz (--inject-skip-tib | --inject-skip-code)...
//             [--n=<programs>] [--seed=<base>] [--stride=<k>]
//   dchm_fuzz --malformed=<n> [--seed=<base>]
//
// Counts must be positive integers; a malformed value, like an unknown
// flag or a flag the selected mode does not read, exits 1 with a
// diagnostic naming it.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "support/Parse.h"
#include "testing/MvmRun.h"
#include "testing/ProgramGen.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace dchm;

namespace {

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
  case 4: { // garble a plan directive (assembly must fail on its line)
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
/// assembler, which also parses the `#!` lines, to reject or accept them
/// gracefully. Surviving the loop without SIGABRT *is* the property under
/// test.
int runMalformed(uint64_t N, uint64_t SeedBase) {
  uint64_t Rejected = 0, Accepted = 0;
  for (uint64_t I = 0; I < N; ++I) {
    uint64_t Seed = SeedBase + I;
    ProgramGen G(Seed);
    std::string Source = G.generate();
    Rng R(Seed * 2654435761ull + 17);
    AssemblyResult AR = assembleProgram(corruptSource(Source, R));
    if (!AR.ok() && AR.Error.empty()) {
      std::fprintf(stderr, "FAIL seed=%llu: rejection carried no diagnostic\n",
                   static_cast<unsigned long long>(Seed));
      return 1;
    }
    ++(AR.ok() ? Accepted : Rejected);
  }
  std::printf("fuzz: %llu corrupted programs, %llu rejected with "
              "diagnostics, %llu still well-formed; no aborts\n",
              static_cast<unsigned long long>(N),
              static_cast<unsigned long long>(Rejected),
              static_cast<unsigned long long>(Accepted));
  return 0;
}

/// The differential oracle: Cfg with mutation off and on, same output and
/// result. Returns why it fails ("" = passes); Runs receives the runs made.
std::string differentialFailure(const std::string &Source, MvmRunConfig Cfg,
                                std::vector<MvmRunResult> &Runs) {
  for (bool Mut : {false, true}) {
    Cfg.Mutate = Mut;
    Runs.push_back(runMvm(Source, Cfg));
    std::string Why = Runs.back().failure(Mut ? "mutation on" : "mutation off");
    if (!Why.empty())
      return Why;
  }
  // Transparency: mutation must not change what the program computes.
  const MvmRunResult &Off = Runs[0], &On = Runs[1];
  if (Off.Output != On.Output || Off.Result.I != On.Result.I)
    return "mutation changed program output:\n  off: " + Off.Output +
           "\n  on:  " + On.Output;
  return "";
}

/// Writes the failing program and its minimization and prints how to replay
/// them. The shrinker keeps a removal when the program still fails the same
/// oracle. A --threads artifact carries `#!threads`, so the one `dchm_run
/// exec` replay line runs it through the threads oracle.
int reportFailure(ProgramGen &G, uint64_t Seed, const std::string &Source,
                  const std::string &Why, bool Threads,
                  const MvmRunConfig &Cfg) {
  auto Artifact = [&](std::string S) {
    if (Threads)
      S.insert(std::min(S.find("#!"), S.size()), "#!threads\n");
    return S;
  };
  std::string Path = "fuzz-fail-" + std::to_string(Seed) + ".mvm";
  writeArtifact(Path, Artifact(Source));
  std::fprintf(stderr, "FAIL seed=%llu: %s\n  artifact: %s\n",
               static_cast<unsigned long long>(Seed), Why.c_str(),
               Path.c_str());
  auto Oracle = Threads ? threadsFailure : differentialFailure;
  std::string Min = G.minimize([&](const std::string &S) {
    std::vector<MvmRunResult> Ignored;
    return !Oracle(S, Cfg, Ignored).empty();
  });
  std::string MinPath = "fuzz-fail-" + std::to_string(Seed) + ".min.mvm";
  writeArtifact(MinPath, Artifact(Min));
  std::fprintf(stderr, "  minimized: %s\n", MinPath.c_str());
  std::fprintf(stderr, "  replay: dchm_run exec %s --mutate --audit\n",
               MinPath.c_str());
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t N = 50, SeedBase = 1, Stride = 4, Malformed = 0;
  bool ThreadsDim = false;
  MutationDebugFlags Faults;
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
      Faults.SkipTibSwing = true;
    else if (A == "--inject-skip-code")
      Faults.SkipCodePointerUpdate = true;
    else {
      std::fprintf(stderr, "unknown flag %s\n", A.c_str());
      return 1;
    }
  }

  // Each mode takes only the flags it reads: --malformed reads --seed,
  // --threads everything but the injection flags, the others everything.
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I], Flag = A.substr(0, A.find('='));
    bool Reads = Malformed    ? Flag == "--malformed" || Flag == "--seed"
                 : ThreadsDim ? Flag.rfind("--inject-", 0) != 0
                              : true;
    if (!Reads) {
      std::fprintf(stderr, "the %s mode does not take '%s'\n",
                   Malformed ? "--malformed" : "--threads", A.c_str());
      return 1;
    }
  }

  if (Malformed)
    return runMalformed(Malformed, SeedBase);

  const bool Inject = Faults.SkipTibSwing || Faults.SkipCodePointerUpdate;
  MvmRunConfig Cfg;
  Cfg.Mutate = true;
  Cfg.AuditStride = Stride;
  uint64_t Runs = 0;
  for (uint64_t I = 0; I < N; ++I) {
    uint64_t Seed = SeedBase + I;
    ProgramGen G(Seed);
    std::string Source = G.generate();

    if (Inject) {
      // Fault injection needs part I swings to actually happen, so skip
      // the static-only flavor for family 0 (no object ever swings there).
      if (Faults.SkipTibSwing && G.model().Families[0].StaticOnlyPlan)
        continue;
      // A segmented driver installs the plan (and arms the fault) only
      // after seg0, which holds the prelude's swings into hot states; run
      // the program as one Main.main so the fault covers the whole drive.
      if (G.model().Segments > 1) {
        G.model().Segments = 1;
        Source = G.render();
      }
      // Prove the auditor catches the break *from the serialized artifact*:
      // write the program out, read it back, and run that byte stream.
      std::string Path = "fuzz-inject-" + std::to_string(Seed) + ".mvm";
      writeArtifact(Path, Source);
      std::ifstream In(Path);
      std::stringstream Ss;
      Ss << In.rdbuf();
      MvmRunConfig Broke = Cfg;
      Broke.Faults = Faults;
      MvmRunResult Broken = runMvm(Ss.str(), Broke);
      ++Runs;
      if (!Broken.ok()) {
        std::fprintf(stderr, "FAIL seed=%llu: %s\n",
                     static_cast<unsigned long long>(Seed),
                     Broken.Error.c_str());
        return 1;
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

    std::vector<MvmRunResult> Made;
    std::string Why = ThreadsDim ? threadsFailure(Source, Cfg, Made)
                                 : differentialFailure(Source, Cfg, Made);
    Runs += Made.size();
    if (!Why.empty())
      return reportFailure(G, Seed, Source, Why, ThreadsDim, Cfg);
  }
  std::printf("fuzz: %llu programs, %llu runs, %s\n",
              static_cast<unsigned long long>(N),
              static_cast<unsigned long long>(Runs),
              ThreadsDim ? "threads dimension {1,2,4}: all per-thread streams "
                           "deterministic, auditor clean"
              : Inject   ? "fault injection, mutation on: all consistent"
                         : "1 config x mutation off/on: all consistent");
  return 0;
}
