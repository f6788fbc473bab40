//===-- testing/MvmRun.cpp - One run of a .mvm program ------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "testing/MvmRun.h"

#include "online/Deployment.h"
#include "testing/ConsistencyAuditor.h"

namespace dchm {

namespace {

MethodId findEntry(const Program &P, const std::string &Entry) {
  if (auto Dot = Entry.find('.'); Dot != std::string::npos) {
    ClassId C = P.findClass(Entry.substr(0, Dot));
    return C != NoClassId ? P.findMethod(C, Entry.substr(Dot + 1))
                          : NoMethodId;
  }
  MethodId M = NoMethodId;
  for (size_t C = 0; C < P.numClasses() && M == NoMethodId; ++C)
    M = P.findMethod(static_cast<ClassId>(C), Entry);
  return M;
}

} // namespace

MvmRunResult runMvm(const std::string &Source, const MvmRunConfig &Cfg) {
  MvmRunResult Out;
  AssemblyResult R = assembleProgram(Source);
  if (!R.ok()) {
    Out.Error = R.Error;
    return Out;
  }
  Program &P = *R.P;
  const RunDirectives &Dirs = R.Directives;
  if (Cfg.Mutate && Dirs.Plan.empty()) {
    Out.Error = "--mutate needs a #!mutable/#!hot plan, and the text has none";
    return Out;
  }

  // No explicit entry: the file's `#!drive`, else `main`.
  const bool Drive = Cfg.Entry.empty() && Dirs.Drive.Init != NoMethodId;
  const std::string EntryName = Cfg.Entry.empty() ? "main" : Cfg.Entry;
  MethodId Entry = Drive ? NoMethodId : findEntry(P, EntryName);
  if (!Drive && Entry == NoMethodId)
    Out.Error = "no entry method '" + EntryName + "'";
  else if (!Drive && !P.method(Entry).Flags.IsStatic)
    Out.Error = "entry method must be static";
  else if (size_t N = Drive ? 0 : P.method(Entry).ParamTys.size();
           Cfg.Args.size() != N)
    Out.Error = std::string(Drive ? "#!drive" : "entry") + " expects " +
                std::to_string(N) + " argument(s), got " +
                std::to_string(Cfg.Args.size());
  else if (!Drive)
    Out.ResultType = P.method(Entry).RetTy;
  if (!Out.ok())
    return Out;
  std::vector<Value> Args;
  for (int64_t A : Cfg.Args)
    Args.push_back(valueI(A));

  // The driver: the `#!drive`, Entry alone, Main.main's segments, or
  // the drive or Entry then Main.tmain. Resolved before the VM exists so a
  // missing method is a diagnostic, not a half-run.
  ClassId MainCls = P.findClass("Main");
  auto MainMethod = [&](const std::string &Name) {
    return MainCls != NoClassId ? P.findMethod(MainCls, Name) : NoMethodId;
  };
  MethodId TEntry = NoMethodId;
  std::vector<MethodId> Segs;
  if (Cfg.TmainMutators) {
    TEntry = MainMethod("tmain");
    if (TEntry == NoMethodId) {
      Out.Error = "no Main.tmain";
      return Out;
    }
  } else if (!Drive && Dirs.Segments > 1 && Entry == MainMethod("main")) {
    for (int K = 0; K < Dirs.Segments; ++K) {
      Segs.push_back(MainMethod("seg" + std::to_string(K)));
      if (Segs.back() == NoMethodId) {
        Out.Error = "no Main.seg" + std::to_string(K) +
                    " for #!segments replay";
        return Out;
      }
    }
  }

  VMOptions Opts;
  Opts.EnableMutation = Cfg.Mutate;
  Opts.MutatorThreads = Cfg.TmainMutators; // 0 runs as 1
  DeployHarness H;
  if (Cfg.AuditStride)
    H.Audit = [&](VirtualMachine &VM) {
      return std::make_unique<ConsistencyAuditor>(VM, Cfg.AuditStride);
    };
  H.DeferInstall = !Segs.empty();
  H.Faults = Cfg.Faults;
  // The text's own plan; R, and Dirs with it, moves into D.
  MutationPlan Plan = std::move(R.Directives.Plan);
  Deployment D(std::move(R), Opts, std::move(Plan), std::move(H));
  VirtualMachine &VM = D.vm();

  auto Run = [&](MethodId M, const std::vector<Value> &A) {
    Expected<Value> V = VM.run(M, A);
    if (!V) {
      Out.Error = V.takeError().message();
      return false;
    }
    Out.Result = *V;
    return true;
  };
  if (Drive) {
    D.drive(1.0);
  } else if (Segs.empty()) {
    if (!Run(Entry, Args))
      return Out;
  }
  for (size_t K = 0; K < Segs.size(); ++K) {
    // Segments communicate through Main statics, so this is
    // output-identical to main().
    if (!Run(Segs[K], {}))
      return Out;
    if (K == 0)
      D.install(); // mid-run: migrates the objects seg0 made
  }
  if (TEntry != NoMethodId) {
    // Main.main ran on context 0 before any mutator thread existed; each
    // hash covers Main.tmain alone.
    for (unsigned T = 0; T < Cfg.TmainMutators; ++T)
      VM.interp(T).clearOutput();
    VM.runMutators([&](unsigned T) { VM.callOn(T, TEntry, {}); });
    for (unsigned T = 0; T < Cfg.TmainMutators; ++T)
      Out.ThreadHashes.push_back(VM.interp(T).outputHash());
  }
  if (VM.heap().budgetError()) { // the drive's and the mutators' calls
    Out.Error = VM.heap().budgetError().message();
    return Out;
  }

  if (auto *Auditor = static_cast<ConsistencyAuditor *>(D.audit())) {
    Auditor->auditNow("end of run"); // final pass after the last transition
    Out.Violations = Auditor->violationCount();
    Out.AuditReport = Auditor->report();
  }
  Out.Metrics = VM.metrics();
  Out.Output = VM.interp().output();
  return Out;
}

std::string MvmRunResult::failure(const std::string &What) const {
  if (!ok())
    return Error;
  if (Violations)
    return "auditor violations (" + What + "):\n" + AuditReport;
  return "";
}

std::string threadsFailure(const std::string &Source, MvmRunConfig Cfg,
                           std::vector<MvmRunResult> &Runs) {
  for (unsigned TN : {1u, 2u, 4u}) {
    Cfg.TmainMutators = TN;
    Runs.push_back(runMvm(Source, Cfg));
    const MvmRunResult &O = Runs.back();
    std::string Why = O.failure(
        TN == 1 ? "1 mutator" : std::to_string(TN) + " mutators");
    if (!Why.empty())
      return Why;
    for (unsigned T = 0; T < TN; ++T)
      if (O.ThreadHashes[T] != Runs.front().ThreadHashes[0])
        return "mutator " + std::to_string(T) + " of " + std::to_string(TN) +
               " diverged from the single-mutator tmain stream";
  }
  return "";
}

} // namespace dchm
