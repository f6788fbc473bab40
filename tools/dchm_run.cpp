//===-- tools/dchm_run.cpp - Command-line experiment runner -------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// A command-line driver for the library: list the Table 1 workloads, run any
// of them with mutation on/off/online, dump the derived mutation plan,
// print a method's bytecode, optimized and specialized bodies as .mvm
// declarations that re-assemble in its class, or run a .mvm file the way
// dchm_fuzz does.
//
//   dchm_run list
//   dchm_run run <workload> [--no-mutation] [--online] [--scale=<f>]
//                           [--heap-mb=<n>] [--accelerated]
//   dchm_run plan <workload>
//   dchm_run disasm <workload> <Class.method> [--state=<k>]
//   dchm_run exec <file.mvm> [--entry=Class.method] [--mutate] [--audit]
//                            [int args...]
//
//===----------------------------------------------------------------------===//

#include "analysis/OlcAnalysis.h"
#include "asm/Printer.h"
#include "compiler/Passes.h"
#include "compiler/Specializer.h"
#include "online/OnlineController.h"
#include "support/Parse.h"
#include "support/Timer.h"
#include "testing/MvmRun.h"
#include "workloads/Workload.h"

#include <climits>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <cstring>
#include <string>

#include <sys/resource.h>

using namespace dchm;

namespace {

std::unique_ptr<Workload> findWorkload(const std::string &Name) {
  for (auto &W : makeAllWorkloads())
    if (W->name() == Name)
      return std::move(W);
  return nullptr;
}

int cmdList() {
  std::printf("%-12s  %s\n", "name", "description");
  for (auto &W : makeAllWorkloads())
    std::printf("%-12s  %s\n", W->name().c_str(), W->description().c_str());
  return 0;
}

void printMetrics(const RunMetrics &M, double WallSec) {
  std::printf("  total cycles:      %llu\n",
              static_cast<unsigned long long>(M.TotalCycles));
  std::printf("    execution:       %llu\n",
              static_cast<unsigned long long>(M.ExecCycles));
  std::printf("    compilation:     %llu (special: %llu)\n",
              static_cast<unsigned long long>(M.CompileCycles),
              static_cast<unsigned long long>(M.SpecialCompileCycles));
  std::printf("    gc:              %llu (%llu collections)\n",
              static_cast<unsigned long long>(M.GcCycles),
              static_cast<unsigned long long>(M.GcCount));
  std::printf("    mutation:        %llu\n",
              static_cast<unsigned long long>(M.MutationCycles));
  std::printf("  code bytes:        %zu (special: %zu)\n", M.CodeBytes,
              M.SpecialCodeBytes);
  std::printf("  TIB bytes:         %zu class + %zu special\n",
              M.ClassTibBytes, M.SpecialTibBytes);
  std::printf("  TIB re-points:     %llu\n",
              static_cast<unsigned long long>(M.Mutation.ObjectTibSwings));
  std::printf("  interpreted insts: %llu in %llu invocations\n",
              static_cast<unsigned long long>(M.Insts),
              static_cast<unsigned long long>(M.Invocations));
  std::printf("  wall time:         %.3f s\n", WallSec);
  // ru_maxrss is in kB on Linux. It also counts the launching process's
  // resident set at fork, which survives exec; a shell adds little.
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  std::printf("  peak host RSS:     %.1f MB\n",
              static_cast<double>(Usage.ru_maxrss) / 1024.0);
}

int cmdRun(Workload &W, bool Mutation, bool Online, double Scale,
           size_t HeapMb, bool Accelerated) {
  VMOptions Opts = W.vmOptions();
  Opts.EnableMutation = Mutation;
  if (HeapMb)
    Opts.HeapBytes = HeapMb << 20;
  Opts.Adaptive.AcceleratedMutableHotness = Accelerated;
  MutationPlan Plan;
  if (Mutation && !Online)
    Plan = runOfflinePipeline(W, OfflineConfig{}).Plan;
  WorkloadRun Run(W, Opts, Online ? nullptr : &Plan);
  VirtualMachine &VM = Run.vm();

  std::unique_ptr<OnlineMutationController> Ctl;
  if (Mutation && Online) {
    Ctl = std::make_unique<OnlineMutationController>(
        VM, OnlineMutationController::Config{});
    std::printf("running %s with ONLINE mutation (poll-driven)...\n",
                W.name().c_str());
  } else if (Mutation) {
    std::printf("running %s with mutation (plan: %zu classes, %zu hot "
                "states, %zu OLC entries)...\n",
                W.name().c_str(), Plan.Classes.size(), Plan.numHotStates(),
                Run.olc().Entries.size());
  } else {
    std::printf("running %s without mutation...\n", W.name().c_str());
  }
  Timer T;
  if (Online) {
    // The generic driver has no poll points; emulate them by splitting the
    // run into profile-scale slices, with or without a controller to poll,
    // so --online output compares across --no-mutation.
    for (int Slice = 0; Slice < 10; ++Slice) {
      W.driveScaled(VM, Scale / 10.0);
      if (Ctl)
        Ctl->poll();
    }
  } else {
    W.driveScaled(VM, Scale);
  }
  double WallSec = T.seconds();
  if (Ctl)
    std::printf("final phase: %s\n", phaseName(Ctl->phase()));
  printMetrics(VM.metrics(), WallSec);
  std::printf("  program output:    %s\n", VM.interp().output().c_str());
  return 0;
}

int cmdPlan(Workload &W) {
  OfflineResult R = runOfflinePipeline(W, OfflineConfig{});
  auto P = W.buildProgram();
  std::printf("mutation plan for %s:\n", W.name().c_str());
  for (const MutableClassPlan &CP : R.Plan.Classes) {
    std::printf("  mutable class %s\n", P->cls(CP.Cls).Name.c_str());
    std::printf("    instance state fields:");
    for (FieldId F : CP.InstanceStateFields)
      std::printf(" %s", P->field(F).Name.c_str());
    std::printf("\n    static state fields:");
    for (FieldId F : CP.StaticStateFields)
      std::printf(" %s", P->field(F).Name.c_str());
    std::printf("\n    mutable methods:");
    for (MethodId M : CP.MutableMethods)
      std::printf(" %s", P->method(M).Name.c_str());
    std::printf("\n    hot states:\n");
    for (const HotState &HS : CP.HotStates) {
      std::printf("      [%4.1f%%] ", 100.0 * HS.Weight);
      for (size_t I = 0; I < HS.InstanceVals.size(); ++I)
        std::printf("%s=%lld ",
                    P->field(CP.InstanceStateFields[I]).Name.c_str(),
                    static_cast<long long>(HS.InstanceVals[I].I));
      for (size_t I = 0; I < HS.StaticVals.size(); ++I)
        std::printf("%s=%lld ",
                    P->field(CP.StaticStateFields[I]).Name.c_str(),
                    static_cast<long long>(HS.StaticVals[I].I));
      std::printf("\n");
    }
  }
  OlcDatabase Db = analyzeObjectLifetimeConstants(*P, R.Plan);
  std::printf("object lifetime constants:\n");
  for (const OlcEntry &E : Db.Entries) {
    std::printf("  via %s.%s:",
                P->cls(P->field(E.RefField).Owner).Name.c_str(),
                P->field(E.RefField).Name.c_str());
    for (const OlcConstant &C : E.Constants)
      std::printf(" %s=%lld", P->field(C.TargetField).Name.c_str(),
                  static_cast<long long>(C.V.I));
    std::printf("\n");
  }
  return 0;
}

int cmdDisasm(Workload &W, const std::string &Spec, int State) {
  auto Dot = Spec.find('.');
  if (Dot == std::string::npos) {
    std::fprintf(stderr, "disasm expects Class.method\n");
    return 1;
  }
  auto P = W.buildProgram();
  ClassId C = P->findClass(Spec.substr(0, Dot));
  if (C == NoClassId) {
    std::fprintf(stderr, "no class named %s\n", Spec.substr(0, Dot).c_str());
    return 1;
  }
  MethodId M = P->findMethod(C, Spec.substr(Dot + 1));
  if (M == NoMethodId) {
    std::fprintf(stderr, "no method named %s\n", Spec.substr(Dot + 1).c_str());
    return 1;
  }
  const MethodInfo &MI = P->method(M);
  std::printf("# bytecode\n%s", printMethod(*P, M, MI.Bytecode).c_str());
  IRFunction Opt = MI.Bytecode;
  runOptPipeline(Opt);
  std::printf("# after the opt pipeline\n%s", printMethod(*P, M, Opt).c_str());
  if (State >= 0) {
    OfflineResult R = runOfflinePipeline(W, OfflineConfig{});
    const MutableClassPlan *CP = R.Plan.planFor(MI.Owner);
    if (!CP || static_cast<size_t>(State) >= CP->HotStates.size()) {
      std::fprintf(stderr, "no hot state %d for this class\n", State);
      return 1;
    }
    IRFunction Spec2 = MI.Bytecode;
    specializeForState(Spec2, *CP, static_cast<size_t>(State));
    runOptPipeline(Spec2);
    std::printf("# specialized for hot state %d\n%s", State,
                printMethod(*P, M, Spec2).c_str());
  }
  return 0;
}

} // namespace

/// exec: run a .mvm file through the harness dchm_fuzz uses
/// (testing/MvmRun), so fuzzer artifacts replay byte-for-byte
/// (docs/fuzzing.md): `#!adaptive` and `#!segments` always apply, --mutate
/// installs the `#!` plan, and --audit attaches a ConsistencyAuditor and
/// fails the run on any invariant violation. A file carrying `#!threads`
/// runs the fuzzer's threads oracle instead (Main.tmain on 1, 2 and 4
/// mutators must agree) and prints its 1-mutator run. All failure paths
/// are recoverable diagnostics (exit 1), never aborts.
int cmdExec(const std::string &Path, const MvmRunConfig &Cfg) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "cannot open %s\n", Path.c_str());
    return 1;
  }
  std::stringstream Ss;
  Ss << In.rdbuf();
  std::vector<MvmRunResult> Runs;
  std::string Why;
  if (hasThreadsDirective(Ss.str())) {
    Why = threadsFailure(Ss.str(), Cfg, Runs);
  } else {
    Runs.push_back(runMvm(Ss.str(), Cfg));
    Why = Runs[0].Error;
  }
  if (!Why.empty()) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), Why.c_str());
    return 1;
  }
  const MvmRunResult &R = Runs[0];
  if (!R.Output.empty())
    std::printf("output: %s\n", R.Output.c_str());
  if (R.ResultType == Type::I64)
    std::printf("result: %lld\n", static_cast<long long>(R.Result.I));
  else if (R.ResultType == Type::F64)
    std::printf("result: %g\n", R.Result.F);
  std::printf("cycles: %llu\n",
              static_cast<unsigned long long>(R.Metrics.TotalCycles));
  std::printf("%s", R.AuditReport.c_str());
  return R.Violations ? 1 : 0;
}

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr,
                 "usage: dchm_run list\n"
                 "       dchm_run run <workload> [--no-mutation] [--online]\n"
                 "                [--scale=<f>] [--heap-mb=<n>] [--accelerated]\n"
                 "       dchm_run plan <workload>\n"
                 "       dchm_run disasm <workload> <Class.method> [--state=<k>]\n"
                 "       dchm_run exec <file.mvm> [--entry=Class.method]\n"
                 "                [--mutate] [--audit] [int args...]\n");
    return 1;
  }
  std::string Cmd = Argv[1];
  if (Cmd == "list")
    return cmdList();
  if (Cmd == "exec") {
    if (Argc < 3) {
      std::fprintf(stderr, "exec needs a .mvm file\n");
      return 1;
    }
    MvmRunConfig Cfg;
    Cfg.Entry = "main";
    for (int I = 3; I < Argc; ++I) {
      std::string A = Argv[I];
      if (A.rfind("--entry=", 0) == 0)
        Cfg.Entry = A.substr(8);
      else if (A == "--mutate")
        Cfg.Mutate = true;
      else if (A == "--audit")
        Cfg.AuditStride = 1;
      else
        Cfg.Args.push_back(intFlag("entry argument", Argv[I], LLONG_MIN,
                                   LLONG_MAX));
    }
    return cmdExec(Argv[2], Cfg);
  }
  if (Argc < 3) {
    std::fprintf(stderr, "%s needs a workload name (try 'list')\n",
                 Cmd.c_str());
    return 1;
  }
  auto W = findWorkload(Argv[2]);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s' (try 'list')\n", Argv[2]);
    return 1;
  }

  bool Mutation = true, Online = false, Accelerated = false;
  double Scale = 1.0;
  size_t HeapMb = 0; // the workload's own heap budget
  int State = -1;
  std::string Spec;
  for (int I = 3; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--no-mutation")
      Mutation = false;
    else if (A == "--online")
      Online = true;
    else if (A == "--accelerated")
      Accelerated = true;
    else if (A.rfind("--scale=", 0) == 0)
      Scale = positiveRealFlag("--scale", Argv[I] + 8, 1e6);
    else if (A.rfind("--heap-mb=", 0) == 0)
      HeapMb = static_cast<size_t>(intFlag("--heap-mb", Argv[I] + 10, 1,
                                           1ll << 20));
    else if (A.rfind("--state=", 0) == 0)
      State = static_cast<int>(intFlag("--state", Argv[I] + 8, 0, INT_MAX));
    else if (A[0] != '-')
      Spec = A;
    else {
      std::fprintf(stderr, "unknown flag %s\n", A.c_str());
      return 1;
    }
  }

  if (Cmd == "run")
    return cmdRun(*W, Mutation, Online, Scale, HeapMb, Accelerated);
  if (Cmd == "plan")
    return cmdPlan(*W);
  if (Cmd == "disasm")
    return cmdDisasm(*W, Spec, State);
  std::fprintf(stderr, "unknown command '%s'\n", Cmd.c_str());
  return 1;
}
