//===-- workloads/Jbb.cpp - SPECjbb-like transaction processing ---------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// The SPECjbb2000 and SPECjbb2005 drivers. The program is Jbb.mvm in this
/// directory, with the variant's NewOrderTx class spliced in from
/// JbbNewOrder2000.mvm or JbbNewOrder2005.mvm; the variants also differ in
/// heap budget and in the mix TxManager.init selects.
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

class JbbImpl final : public JbbWorkload {
public:
  explicit JbbImpl(JbbVariant V) : Variant(V) {
    HeapBytes = V == JbbVariant::Jbb2000 ? 8u << 20 : 24u << 20;
    Source = JbbMvm;
    size_t Slot = Source.find(NewOrderSlot);
    DCHM_CHECK(Slot != std::string::npos, "Jbb.mvm lost its NewOrderTx slot");
    Source.replace(Slot, NewOrderSlot.size(),
                   V == JbbVariant::Jbb2000 ? JbbNewOrder2000Mvm
                                            : JbbNewOrder2005Mvm);
  }

  std::string name() const override {
    return Variant == JbbVariant::Jbb2000 ? "SPECjbb2000" : "SPECjbb2005";
  }
  std::string description() const override {
    return "SPEC transaction processing benchmark (warehouse model)";
  }

  void driveScaled(VirtualMachine &VM, double Scale) override;

  void initVm(VirtualMachine &VM) override;
  uint64_t runTransactions(VirtualMachine &VM, uint64_t Count) override;
  std::vector<JbbWindow>
  runWarehouseWindows(VirtualMachine &VM, int NumWindows,
                      uint64_t WindowCycles, uint64_t WarmupCycles) override;

private:
  JbbVariant Variant;
};

void JbbImpl::initVm(VirtualMachine &VM) {
  ProgramIds Ids(VM.program());
  VM.program().setStaticSlot(
      VM.program().field(Ids.field("TxManager", "seed")).Slot,
      valueI(0x5EC5EC5EC5ll));
  int64_t Var = Variant == JbbVariant::Jbb2005 ? 1 : 0;
  VM.call(Ids.method("TxManager", "init"),
          {valueI(Var), valueI(200), valueI(10), valueI(300)});
}

uint64_t JbbImpl::runTransactions(VirtualMachine &VM, uint64_t Count) {
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

std::vector<JbbWindow> JbbImpl::runWarehouseWindows(VirtualMachine &VM,
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

void JbbImpl::driveScaled(VirtualMachine &VM, double Scale) {
  initVm(VM);
  uint64_t Tx = static_cast<uint64_t>(16000 * Scale);
  if (Tx < 800)
    Tx = 800;
  runTransactions(VM, Tx);
  ProgramIds Ids(VM.program());
  VM.call(Ids.method("TxManager", "checkSum"), {});
}

} // namespace

std::unique_ptr<JbbWorkload> makeJbb(JbbVariant V) {
  return std::make_unique<JbbImpl>(V);
}

} // namespace dchm
