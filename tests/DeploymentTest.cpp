//===-- tests/DeploymentTest.cpp - One deployment of a run --------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// The ordering a Deployment owns: the audit hook is attached before the
/// plan install, so an auditor reaches the install's own transitions,
/// including a mid-run install that migrates live objects.
///
//===----------------------------------------------------------------------===//

#include "online/Deployment.h"
#include "testing/ConsistencyAuditor.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>

using namespace dchm;

namespace {

/// An audit hook that records the transitions it is told about.
struct TransitionLog final : AuditHook {
  std::vector<std::string> Seen;
  void onSafepoint() override {}
  void onMutationTransition(const char *Where) override {
    Seen.push_back(Where);
  }
  size_t count(const std::string &Where) const {
    return static_cast<size_t>(std::count(Seen.begin(), Seen.end(), Where));
  }
};

/// tests/data/segmented.mvm: `#!adaptive 30 120`, `#!segments 3` and a
/// plan, whose seg0 leaves objects in the plan's hot state.
AssemblyResult segmented() {
  std::ifstream In(DCHM_TEST_DATA "/segmented.mvm");
  AssemblyResult R =
      assembleProgram(std::string(std::istreambuf_iterator<char>(In), {}));
  EXPECT_TRUE(R.ok()) << R.Error;
  return R;
}

/// segmented.mvm deployed with its own plan.
std::unique_ptr<Deployment> deploySegmented(const VMOptions &Opts,
                                            DeployHarness H) {
  AssemblyResult R = segmented();
  MutationPlan Plan = R.Directives.Plan;
  return std::make_unique<Deployment>(std::move(R), Opts, std::move(Plan),
                                      std::move(H));
}

DeployHarness logged(bool DeferInstall) {
  DeployHarness H;
  H.Audit = [](VirtualMachine &) { return std::make_unique<TransitionLog>(); };
  H.DeferInstall = DeferInstall;
  return H;
}

constexpr const char *Migration = "online: object migration";

TEST(Deployment, AuditHookSeesMidRunInstall) {
  auto D = deploySegmented(VMOptions(), logged(true));
  auto &Log = static_cast<TransitionLog &>(*D->audit());
  VirtualMachine &VM = D->vm();
  VM.call(ProgramIds(D->program()).method("Main", "seg0"), {});
  EXPECT_TRUE(Log.Seen.empty()) << "no plan yet, so no transition";
  ASSERT_EQ(VM.mutation().stats().ObjectTibSwings, 0u);
  D->install();
  // The install migrated the objects seg0 made, and the hook saw it.
  EXPECT_GT(VM.mutation().stats().ObjectTibSwings, 0u);
  EXPECT_EQ(Log.count(Migration), 1u);
}

TEST(Deployment, AuditHookSeesStartupInstall) {
  auto D = deploySegmented(VMOptions(), logged(false));
  EXPECT_EQ(static_cast<TransitionLog &>(*D->audit()).count(Migration), 1u);
  EXPECT_FALSE(D->plan().empty());
}

TEST(Deployment, OnlineActivationIsAudited) {
  // The controller installs its plan mid-run, into SalaryDB's populated
  // heap; the auditor attached at deployment checks that install too.
  OnlineMutationController::Config Cfg;
  Cfg.HotProfileCycles = 1'000'000;
  Cfg.ValueProfileCycles = 1'000'000;
  DeployHarness H;
  H.Audit = [](VirtualMachine &VM) {
    return std::make_unique<ConsistencyAuditor>(VM, 1'000'000);
  };
  Deployment D(makeSalaryDb()->assemble(), VMOptions(), Cfg, std::move(H));
  auto &Auditor = static_cast<ConsistencyAuditor &>(*D.audit());
  ASSERT_NE(D.controller(), nullptr);
  EXPECT_TRUE(D.plan().empty());
  D.drive(0.2);
  EXPECT_EQ(D.controller()->phase(), OnlineMutationController::Phase::Active);
  EXPECT_EQ(&D.plan(), &D.controller()->plan());
  EXPECT_FALSE(D.plan().empty());
  EXPECT_GT(D.vm().mutation().stats().ObjectTibSwings, 0u);
  EXPECT_GT(Auditor.auditsRun(), 0u);
  EXPECT_EQ(Auditor.violationCount(), 0u) << Auditor.report();
}

TEST(Deployment, AdaptiveDirectiveOverridesBaseOptions) {
  VMOptions Opts;
  Opts.HeapBytes = 8u << 20;
  Deployment D(segmented(), Opts);
  EXPECT_EQ(D.vm().options().Adaptive.Opt1Threshold, 30u);
  EXPECT_EQ(D.vm().options().Adaptive.Opt2Threshold, 120u);
  EXPECT_EQ(D.vm().options().HeapBytes, 8u << 20);
}

TEST(Deployment, MutationOffIgnoresThePlanSource) {
  VMOptions Off;
  Off.EnableMutation = false;
  Deployment Online(makeSalaryDb()->assemble(), Off,
                    OnlineMutationController::Config{});
  EXPECT_EQ(Online.controller(), nullptr);
  EXPECT_TRUE(Online.plan().empty());
  auto Given = deploySegmented(Off, logged(false));
  EXPECT_TRUE(Given->plan().empty());
  EXPECT_TRUE(static_cast<TransitionLog &>(*Given->audit()).Seen.empty());
  EXPECT_EQ(Given->vm().metrics().SpecialTibBytes, 0u);
}

} // namespace
