//===-- workloads/Jbb.cpp - SPECjbb-like transaction processing ---------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// SPECjbb2000 and SPECjbb2005: Jbb.mvm in this directory, with the
/// variant's NewOrderTx class and `#!drive` line spliced in from
/// JbbNewOrder2000.mvm or JbbNewOrder2005.mvm, and the variant's heap.
///
/// Measurement: runWarehouseWindows() executes back-to-back "warehouses"
/// (fixed simulated-cycle windows) and reports each window's throughput in
/// transactions per simulated second, the paper's Figures 13-15 metric.
///
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include "runtime/CostModel.h"
#include "support/Debug.h"

#include <algorithm>
#include <string_view>

namespace dchm {

// Jbb.mvm and its two NewOrderTx variants, compiled in.
extern const char JbbMvm[], JbbNewOrder2000Mvm[], JbbNewOrder2005Mvm[];

namespace {

/// The comment in Jbb.mvm that the variant's NewOrderTx class replaces.
constexpr std::string_view NewOrderSlot =
    "# NewOrderTx: JbbNewOrder2000.mvm or JbbNewOrder2005.mvm.\n";

std::string jbbSource(JbbVariant V) {
  std::string Source = JbbMvm;
  size_t Slot = Source.find(NewOrderSlot);
  DCHM_CHECK(Slot != std::string::npos, "Jbb.mvm lost its NewOrderTx slot");
  return Source.replace(Slot, NewOrderSlot.size(),
                        V == JbbVariant::Jbb2000 ? JbbNewOrder2000Mvm
                                                 : JbbNewOrder2005Mvm);
}

} // namespace

JbbWorkload::JbbWorkload(JbbVariant V)
    : Workload(V == JbbVariant::Jbb2000 ? "SPECjbb2000" : "SPECjbb2005",
               "SPEC transaction processing benchmark (warehouse model)",
               jbbSource(V),
               V == JbbVariant::Jbb2000 ? 8u << 20 : 24u << 20) {}

uint64_t JbbWorkload::runTransactions(VirtualMachine &VM, uint64_t Count) {
  ProgramIds Ids(VM.program());
  MethodId RunBatch = Ids.method("TxManager", "runBatch");
  constexpr uint64_t Batch = 50;
  uint64_t Done = 0;
  while (Done < Count) {
    uint64_t N = std::min(Batch, Count - Done);
    VM.call(RunBatch, {valueI(static_cast<int64_t>(N))});
    Done += N;
  }
  return Done;
}

std::vector<JbbWindow> JbbWorkload::runWarehouseWindows(VirtualMachine &VM,
                                                        int NumWindows,
                                                        uint64_t WindowCycles,
                                                        uint64_t WarmupCycles) {
  ProgramIds Ids(VM.program());
  MethodId RunBatch = Ids.method("TxManager", "runBatch");
  std::vector<JbbWindow> Out;
  // Warm-up (the paper's 30 s ramp before measurement).
  uint64_t WarmEnd = VM.totalCycles() + WarmupCycles;
  while (VM.totalCycles() < WarmEnd)
    VM.call(RunBatch, {valueI(20)});
  for (int Wd = 0; Wd < NumWindows; ++Wd) {
    JbbWindow Win;
    uint64_t Start = VM.totalCycles();
    uint64_t End = Start + WindowCycles;
    uint64_t Tx = 0;
    while (VM.totalCycles() < End) {
      VM.call(RunBatch, {valueI(20)});
      Tx += 20;
    }
    Win.Transactions = Tx;
    Win.Cycles = VM.totalCycles() - Start;
    Win.Throughput = static_cast<double>(Tx) /
                     (static_cast<double>(Win.Cycles) /
                      static_cast<double>(CyclesPerSecond));
    Out.push_back(Win);
  }
  return Out;
}

std::unique_ptr<JbbWorkload> makeJbb(JbbVariant V) {
  return std::make_unique<JbbWorkload>(V);
}

} // namespace dchm
