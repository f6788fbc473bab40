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
/// the library, whose `#!drive` line is its run (docs/mvm-format.md). A
/// Workload is that text, a name and a heap budget. It rebuilds its Program
/// from scratch by assembling the text (so profiling runs, baseline runs,
/// and mutation runs never share compiled state). A run deploys the text
/// through Deployment (online/Deployment.h), as `dchm_run exec` runs the
/// file: `Deployment D(W.assemble(), W.vmOptions(), Plan)`.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_WORKLOADS_WORKLOAD_H
#define DCHM_WORKLOADS_WORKLOAD_H

#include "analysis/OfflinePipeline.h"
#include "asm/Assembler.h"

#include <memory>
#include <string>
#include <vector>

namespace dchm {

/// One benchmark program.
class Workload : public ProgramSource {
public:
  Workload(std::string Name, std::string Description, std::string Source,
           size_t HeapBytes = VMOptions().HeapBytes)
      : Name(std::move(Name)), Description(std::move(Description)),
        Source(std::move(Source)), HeapBytes(HeapBytes) {}

  const std::string &name() const { return Name; }
  const std::string &description() const { return Description; }

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

  /// Assembles the text into a fresh linked Program and its directives,
  /// and keeps its `#!drive` (the texts are compiled in, so a text that
  /// fails to assemble or has no `#!drive` aborts).
  AssemblyResult assemble();

  // --- ProgramSource ---------------------------------------------------------
  std::unique_ptr<Program> buildProgram() override {
    return std::move(assemble().P);
  }
  /// Runs the `#!drive` at ProfileScale on a VM over any Program this
  /// workload built: entity ids are the same in every build.
  void driveProfile(VirtualMachine &VM) override {
    runDrive(VM, Drive, ProfileScale);
  }

protected:
  /// The `#!drive` of the last build (none before the first).
  DriveDirective Drive;

private:
  std::string Name, Description;
  /// The program as `.mvm` text (src/workloads/*.mvm, compiled in).
  std::string Source;
  /// Heap budget of a run (vmOptions); profiling runs keep the VM default.
  size_t HeapBytes;
  /// Fraction of the full run used for offline profiling.
  static constexpr double ProfileScale = 0.2;
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

/// The SPECjbb-like workloads, with the drivers Figures 13-15 need besides
/// the `#!drive` run: per-warehouse throughput, not just end-to-end cycles.
class JbbWorkload final : public Workload {
public:
  explicit JbbWorkload(JbbVariant V);
  /// Builds the warehouse database on a fresh VM over any Program this
  /// workload built: the `#!drive` line's seed and init call.
  void initVm(VirtualMachine &VM) { startDrive(VM, Drive); }
  /// Runs Count transactions; returns the number actually run.
  uint64_t runTransactions(VirtualMachine &VM, uint64_t Count);
  /// Runs NumWindows back-to-back measurement windows of WindowCycles
  /// simulated cycles each, after a WarmupCycles ramp.
  std::vector<JbbWindow> runWarehouseWindows(VirtualMachine &VM,
                                             int NumWindows,
                                             uint64_t WindowCycles,
                                             uint64_t WarmupCycles);
};

std::unique_ptr<JbbWorkload> makeJbb(JbbVariant V);

/// All seven, in Table 1 order.
std::vector<std::unique_ptr<Workload>> makeAllWorkloads();

} // namespace dchm

#endif // DCHM_WORKLOADS_WORKLOAD_H
