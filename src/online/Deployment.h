//===-- online/Deployment.h - One deployment of a run ---------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one recipe that deploys a run, Figure 3's offline recipe and section
/// 9's online variant alike: an assembled `.mvm` text, a fresh VM over its
/// Program with the text's `#!adaptive` applied to the caller's options, an
/// optional audit hook attached before anything is installed (so it sees
/// the install's own transitions), and a plan from one source: none, a
/// given plan (the text's `#!mutable`/`#!hot` plan or the offline
/// pipeline's), or the online controller, which derives and installs one
/// mid-run. With mutation off the source is ignored.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_ONLINE_DEPLOYMENT_H
#define DCHM_ONLINE_DEPLOYMENT_H

#include "asm/Assembler.h"
#include "online/OnlineController.h"

#include <functional>
#include <variant>

namespace dchm {

/// A given plan (an empty one is none) or the online controller's.
using PlanSource = std::variant<MutationPlan, OnlineMutationController::Config>;

/// What a test harness adds to a deployment.
struct DeployHarness {
  /// Builds the audit hook; empty: the run is not audited.
  std::function<std::unique_ptr<AuditHook>(VirtualMachine &)> Audit;
  /// Leave the plan to install(): a `#!segments` run installs it after
  /// seg0, into a heap that already holds objects.
  bool DeferInstall = false;
  MutationDebugFlags Faults; ///< armed after the install
};

/// One deployed run. It owns the Program, its directives, the plan, the
/// audit hook, the online controller and the VM, and destroys the VM first.
class Deployment {
public:
  /// Text must have assembled.
  Deployment(AssemblyResult Text, const VMOptions &Opts,
             PlanSource Source = {}, DeployHarness H = {})
      : P(std::move(Text.P)), Dirs(std::move(Text.Directives)),
        Faults(H.Faults), VM(*P, withAdaptive(Opts)) {
    if (H.Audit)
      VM.setAuditHook((Hook = H.Audit(VM)).get());
    if (!VM.options().EnableMutation)
      return;
    if (auto *Online = std::get_if<OnlineMutationController::Config>(&Source))
      Ctl = std::make_unique<OnlineMutationController>(VM, *Online);
    else
      Plan = std::move(std::get<MutationPlan>(Source));
    if (!Ctl && !H.DeferInstall)
      install();
  }

  /// Installs the plan, then arms the faults; the constructor calls it
  /// unless DeferInstall. At most once.
  void install() {
    VM.setMutationPlan(&Plan); // ignored without mutation or a plan
    VM.mutation().debugFlags() = Faults; // the install itself runs clean
  }
  /// Runs the text's `#!drive` at Scale (1.0 = the full run).
  void drive(double Scale) { runDrive(VM, Dirs.Drive, Scale); }

  VirtualMachine &vm() { return VM; }
  Program &program() { return *P; }
  /// The given plan or the controller's (empty until it activates); empty
  /// with mutation off.
  const MutationPlan &plan() const { return Ctl ? Ctl->plan() : Plan; }
  /// Null unless the source is online and mutation is on.
  const OnlineMutationController *controller() const { return Ctl.get(); }
  AuditHook *audit() { return Hook.get(); } ///< null without one

private:
  VMOptions withAdaptive(VMOptions O) const {
    if (Dirs.Opt1)
      O.Adaptive.Opt1Threshold = Dirs.Opt1;
    if (Dirs.Opt2)
      O.Adaptive.Opt2Threshold = Dirs.Opt2;
    return O;
  }

  std::unique_ptr<Program> P;
  RunDirectives Dirs;
  MutationPlan Plan;
  MutationDebugFlags Faults;
  std::unique_ptr<AuditHook> Hook;
  /// Never detaches from the VM's after-call step, so it outlives the VM.
  std::unique_ptr<OnlineMutationController> Ctl;
  VirtualMachine VM; // declared last: destroyed first
};

} // namespace dchm

#endif // DCHM_ONLINE_DEPLOYMENT_H
