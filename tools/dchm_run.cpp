//===-- tools/dchm_run.cpp - Command-line experiment runner -------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// A command-line driver for the library: list the Table 1 workloads, run any
// of them with mutation on/off/online, dump the derived mutation plan, or
// disassemble a method's bytecode and its compiled versions.
//
//   dchm_run list
//   dchm_run run <workload> [--no-mutation] [--online] [--scale=<f>]
//                           [--heap-mb=<n>] [--accelerated]
//   dchm_run plan <workload>
//   dchm_run disasm <workload> <Class.method> [--state=<k>]
//   dchm_run --print-env
//
//===----------------------------------------------------------------------===//

#include "analysis/OlcAnalysis.h"
#include "asm/Assembler.h"
#include "compiler/Passes.h"
#include "compiler/Specializer.h"
#include "online/OnlineController.h"
#include "support/Env.h"
#include "support/Parse.h"
#include "support/Timer.h"
#include "testing/ConsistencyAuditor.h"
#include "testing/ProgramGen.h"
#include "workloads/Workload.h"

#include <climits>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <cstring>
#include <string>

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
}

int cmdRun(Workload &W, bool Mutation, bool Online, double Scale,
           size_t HeapMb, bool Accelerated) {
  auto P = W.buildProgram();
  VMOptions Opts;
  Opts.EnableMutation = Mutation;
  Opts.HeapBytes = HeapMb << 20;
  Opts.Adaptive.AcceleratedMutableHotness = Accelerated;
  VirtualMachine VM(*P, Opts);

  MutationPlan Plan;
  OlcDatabase Olc;
  std::unique_ptr<OnlineMutationController> Ctl;
  if (Mutation && Online) {
    OnlineMutationController::Config Cfg;
    Cfg.Analysis.HotStateMinFraction = 0.05;
    Ctl = std::make_unique<OnlineMutationController>(VM, Cfg);
    std::printf("running %s with ONLINE mutation (poll-driven)...\n",
                W.name().c_str());
    // The generic driver has no poll points; emulate them by splitting the
    // run into profile-scale slices.
    for (int Slice = 0; Slice < 10; ++Slice) {
      W.driveScaled(VM, Scale / 10.0);
      Ctl->poll();
    }
    std::printf("final phase: %s\n",
                Ctl->phase() == OnlineMutationController::Phase::Active
                    ? "active"
                    : "not activated");
  } else {
    if (Mutation) {
      OfflineConfig Cfg;
      Cfg.HotStateMinFraction = 0.05;
      OfflineResult R = runOfflinePipeline(W, Cfg);
      Plan = std::move(R.Plan);
      VM.setMutationPlan(&Plan);
      Olc = analyzeObjectLifetimeConstants(*P, Plan);
      VM.setOlcDatabase(&Olc);
      std::printf("running %s with mutation (plan: %zu classes, %zu hot "
                  "states, %zu OLC entries)...\n",
                  W.name().c_str(), Plan.Classes.size(), Plan.numHotStates(),
                  Olc.Entries.size());
    } else {
      std::printf("running %s without mutation...\n", W.name().c_str());
    }
    Timer T;
    W.driveScaled(VM, Scale);
    printMetrics(VM.metrics(), T.seconds());
    std::printf("  program output:    %s\n", VM.interp().output().c_str());
    return 0;
  }
  printMetrics(VM.metrics(), 0.0);
  std::printf("  program output:    %s\n", VM.interp().output().c_str());
  return 0;
}

int cmdPlan(Workload &W) {
  OfflineConfig Cfg;
  Cfg.HotStateMinFraction = 0.05;
  OfflineResult R = runOfflinePipeline(W, Cfg);
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
  std::printf("bytecode:\n%s\n", MI.Bytecode.toString().c_str());
  IRFunction Opt = MI.Bytecode;
  runOptPipeline(Opt);
  std::printf("after the opt pipeline:\n%s\n", Opt.toString().c_str());
  if (State >= 0) {
    OfflineConfig Cfg;
    Cfg.HotStateMinFraction = 0.05;
    OfflineResult R = runOfflinePipeline(W, Cfg);
    const MutableClassPlan *CP = R.Plan.planFor(MI.Owner);
    if (!CP || static_cast<size_t>(State) >= CP->HotStates.size()) {
      std::fprintf(stderr, "no hot state %d for this class\n", State);
      return 1;
    }
    IRFunction Spec2 = MI.Bytecode;
    specializeForState(Spec2, MI, *CP, static_cast<size_t>(State));
    runOptPipeline(Spec2);
    std::printf("specialized for hot state %d:\n%s\n", State,
                Spec2.toString().c_str());
  }
  return 0;
}

} // namespace

/// exec: assemble a .mvm file and invoke a static entry method. With
/// --mutate the file's #! plan directives (testing/ProgramGen) are parsed
/// and installed; with --audit a ConsistencyAuditor rides along and the run
/// fails on any invariant violation — together these replay fuzzer
/// artifacts byte-for-byte (docs/fuzzing.md). Segmented artifacts
/// (#!segments) replay the retire / re-install harness. All failure paths
/// are recoverable diagnostics (exit 1), never aborts.
int cmdExec(const std::string &Path, const std::string &Entry,
            const std::vector<int64_t> &MainArgs, bool Mutate, bool AuditOn) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "cannot open %s\n", Path.c_str());
    return 1;
  }
  std::stringstream Ss;
  Ss << In.rdbuf();
  AssemblyResult R = assembleProgram(Ss.str());
  if (!R.ok()) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), R.Error.c_str());
    return 1;
  }
  Program &P = *R.P;
  MethodId M = NoMethodId;
  if (auto Dot = Entry.find('.'); Dot != std::string::npos) {
    ClassId C = P.findClass(Entry.substr(0, Dot));
    if (C != NoClassId)
      M = P.findMethod(C, Entry.substr(Dot + 1));
  } else {
    for (size_t C = 0; C < P.numClasses() && M == NoMethodId; ++C)
      M = P.findMethod(static_cast<ClassId>(C), Entry);
  }
  if (M == NoMethodId) {
    std::fprintf(stderr, "no entry method '%s'\n", Entry.c_str());
    return 1;
  }
  if (!P.method(M).Flags.IsStatic) {
    std::fprintf(stderr, "entry method must be static\n");
    return 1;
  }
  std::vector<Value> Args;
  for (int64_t A : MainArgs)
    Args.push_back(valueI(A));
  if (Args.size() != P.method(M).ParamTys.size()) {
    std::fprintf(stderr, "entry expects %zu argument(s), got %zu\n",
                 P.method(M).ParamTys.size(), Args.size());
    return 1;
  }
  GenPlanInfo Gen;
  if (Mutate) {
    std::string Err;
    if (!ProgramGen::parsePlanDirectives(Ss.str(), P, Gen, Err)) {
      std::fprintf(stderr, "%s: %s\n", Path.c_str(), Err.c_str());
      return 1;
    }
  }
  VMOptions Opts;
  Opts.EnableMutation = Mutate && !Gen.Plan.empty();
  if (Gen.Opt1)
    Opts.Adaptive.Opt1Threshold = Gen.Opt1;
  if (Gen.Opt2)
    Opts.Adaptive.Opt2Threshold = Gen.Opt2;
  if (AuditOn)
    Opts.AuditConsistency = true;
  VirtualMachine VM(P, Opts);
  if (Opts.EnableMutation)
    VM.setMutationPlan(&Gen.Plan);
  ConsistencyAuditor Auditor(VM);
  if (AuditOn)
    VM.setAuditHook(&Auditor);
  Value Result = valueI(0);
  if (Mutate && Gen.Segments > 1 && Args.empty()) {
    // Segmented artifact: replay the fuzzer's harness exactly — drive the
    // segments one at a time, retiring the plan and re-installing it at the
    // #!segments boundaries instead of calling main().
    ClassId MainCls = P.findClass("Main");
    for (int K = 0; K < Gen.Segments; ++K) {
      MethodId Seg = MainCls != NoClassId
                         ? P.findMethod(MainCls, "seg" + std::to_string(K))
                         : NoMethodId;
      if (Seg == NoMethodId) {
        std::fprintf(stderr, "%s: no Main.seg%d for #!segments replay\n",
                     Path.c_str(), K);
        return 1;
      }
      Expected<Value> V = VM.run(Seg, {});
      if (!V) {
        std::fprintf(stderr, "%s: %s\n", Path.c_str(),
                     V.takeError().message().c_str());
        return 1;
      }
      Result = *V;
      if (!Opts.EnableMutation)
        continue;
      if (K == Gen.RetireAfter)
        VM.retireMutationPlan();
      if (K == Gen.ReinstallAfter)
        VM.setMutationPlan(&Gen.Plan); // re-install migrates live objects
    }
  } else {
    Expected<Value> V = VM.run(M, Args);
    if (!V) {
      std::fprintf(stderr, "%s: %s\n", Path.c_str(),
                   V.takeError().message().c_str());
      return 1;
    }
    Result = *V;
  }
  if (!VM.interp().output().empty())
    std::printf("output: %s\n", VM.interp().output().c_str());
  if (P.method(M).RetTy == Type::I64)
    std::printf("result: %lld\n", static_cast<long long>(Result.I));
  else if (P.method(M).RetTy == Type::F64)
    std::printf("result: %g\n", Result.F);
  std::printf("cycles: %llu\n",
              static_cast<unsigned long long>(VM.totalCycles()));
  if (AuditOn) {
    std::printf("%s", Auditor.report().c_str());
    if (!Auditor.clean())
      return 1;
  }
  return 0;
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
                 "                [--mutate] [--audit] [int args...]\n"
                 "       dchm_run --print-env\n");
    return 1;
  }
  std::string Cmd = Argv[1];
  if (Cmd == "list")
    return cmdList();
  if (Cmd == "--print-env" || Cmd == "print-env") {
    std::printf("%s", env::printTable().c_str());
    return 0;
  }
  if (Cmd == "exec") {
    if (Argc < 3) {
      std::fprintf(stderr, "exec needs a .mvm file\n");
      return 1;
    }
    std::string Entry = "main";
    std::vector<int64_t> MainArgs;
    bool Mutate = false, AuditOn = false;
    for (int I = 3; I < Argc; ++I) {
      std::string A = Argv[I];
      if (A.rfind("--entry=", 0) == 0)
        Entry = A.substr(8);
      else if (A == "--mutate")
        Mutate = true;
      else if (A == "--audit")
        AuditOn = true;
      else
        MainArgs.push_back(intFlag("entry argument", Argv[I], LLONG_MIN,
                                   LLONG_MAX));
    }
    return cmdExec(Argv[2], Entry, MainArgs, Mutate, AuditOn);
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
  size_t HeapMb = 50;
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
