//===-- workloads/Workload.h - Benchmark program interface ----*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seven benchmark programs of the paper's Table 1, re-expressed as
/// MiniVM programs: each is a `.mvm` text in this directory, compiled into
/// the library, and its C++ driver. Every workload rebuilds its Program
/// from scratch by assembling the text (so profiling runs, baseline runs,
/// and mutation runs never share compiled state) and can drive a run at a
/// configurable scale.
/// WorkloadRun is the one recipe that deploys a workload: a fresh Program,
/// a VM over it, and (with mutation on) the plan and its OLC database.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_WORKLOADS_WORKLOAD_H
#define DCHM_WORKLOADS_WORKLOAD_H

#include "analysis/OfflinePipeline.h"
#include "core/VM.h"

#include <memory>
#include <string>
#include <vector>

namespace dchm {

/// One benchmark program.
class Workload : public ProgramSource {
public:
  ~Workload() override = default;

  virtual std::string name() const = 0;
  virtual std::string description() const = 0;

  /// Drives a run at the given scale (1.0 = the full benchmark; profiling
  /// runs use a fraction). The driver resolves entity ids by name from
  /// VM.program(), so it works on any Program built by this workload.
  virtual void driveScaled(VirtualMachine &VM, double Scale) = 0;

  /// Full-scale run.
  void drive(VirtualMachine &VM) { driveScaled(VM, 1.0); }

  /// The options a run of this workload starts from: the VM defaults with
  /// the workload's heap budget. The budgets follow the paper's heaps,
  /// scaled 1:16 for the SPECjbb pair with the scaled-down programs
  /// (128 MB -> 8 MB, 384 MB -> 24 MB); the small applications keep Jikes'
  /// default 50 MB, which they never pressure.
  VMOptions vmOptions() const {
    VMOptions O;
    O.HeapBytes = HeapBytes;
    return O;
  }

  // --- ProgramSource ---------------------------------------------------------
  /// Assembles Source into a fresh linked Program.
  std::unique_ptr<Program> buildProgram() override;
  void driveProfile(VirtualMachine &VM) override {
    driveScaled(VM, ProfileScale);
  }

protected:
  /// The program as `.mvm` text (src/workloads/*.mvm, compiled in).
  std::string Source;
  /// Fraction of the full run used for offline profiling.
  static constexpr double ProfileScale = 0.2;
  /// Heap budget of a run (vmOptions); profiling runs keep the VM default.
  size_t HeapBytes = VMOptions().HeapBytes;
};

/// One deployment of a workload, the paper's Figure 3 recipe: a fresh
/// Program of W and a VM over it with Opts; with Opts.EnableMutation and a
/// non-null Plan, the plan is installed and its object-lifetime-constant
/// database attached. The run owns Program, OLC database and VM and
/// destroys the VM first; Plan must outlive it. The caller drives the VM.
class WorkloadRun {
public:
  WorkloadRun(Workload &W, const VMOptions &Opts,
              const MutationPlan *Plan = nullptr);

  VirtualMachine &vm() { return VM; }
  Program &program() { return *P; }
  /// The attached OLC database (empty without an installed plan).
  const OlcDatabase &olc() const { return Olc; }

private:
  std::unique_ptr<Program> P;
  OlcDatabase Olc;
  VirtualMachine VM; // declared last: destroyed first
};

/// Convenience name-based resolution for drivers and tests (aborts on
/// missing names — a typo in a driver is a bug, not a condition).
class ProgramIds {
public:
  explicit ProgramIds(Program &P) : P(P) {}
  ClassId cls(const std::string &Name) const;
  MethodId method(const std::string &Cls, const std::string &Name) const;
  FieldId field(const std::string &Cls, const std::string &Name) const;

private:
  Program &P;
};

// --- Factories (Table 1) ------------------------------------------------
std::unique_ptr<Workload> makeSalaryDb();
std::unique_ptr<Workload> makeSimLogic();
std::unique_ptr<Workload> makeCsvToXml();
std::unique_ptr<Workload> makeJava2Xhtml();
std::unique_ptr<Workload> makeWekaMini();

/// SPECjbb-like transaction-processing workload.
enum class JbbVariant { Jbb2000, Jbb2005 };

/// One measurement window ("warehouse") of a SPECjbb-like run.
struct JbbWindow {
  double Throughput = 0.0; ///< transactions per simulated second
  uint64_t Cycles = 0;
  uint64_t Transactions = 0;
};

/// Extended driver API for the SPECjbb-like workloads: Figures 13-15 need
/// per-warehouse throughput, not just end-to-end cycles.
class JbbWorkload : public Workload {
public:
  /// Builds the warehouse database on a fresh VM (seeds, init transaction).
  virtual void initVm(VirtualMachine &VM) = 0;
  /// Runs Count transactions; returns the number actually run.
  virtual uint64_t runTransactions(VirtualMachine &VM, uint64_t Count) = 0;
  /// Runs NumWindows back-to-back measurement windows of WindowCycles
  /// simulated cycles each, after a WarmupCycles ramp.
  virtual std::vector<JbbWindow> runWarehouseWindows(VirtualMachine &VM,
                                                     int NumWindows,
                                                     uint64_t WindowCycles,
                                                     uint64_t WarmupCycles) = 0;
};

std::unique_ptr<JbbWorkload> makeJbb(JbbVariant V);

/// All seven, in Table 1 order.
std::vector<std::unique_ptr<Workload>> makeAllWorkloads();

} // namespace dchm

#endif // DCHM_WORKLOADS_WORKLOAD_H
