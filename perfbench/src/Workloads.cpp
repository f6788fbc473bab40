//===-- perfbench/src/Workloads.cpp - The benchmark's four workloads ----------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/OlcAnalysis.h"
#include "asm/Assembler.h"
#include "online/OnlineController.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace dchm;

namespace perfbench {
namespace {

uint64_t splitmix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

double secondsSince(int64_t T0) {
  return static_cast<double>(nowNs() - T0) / 1e9;
}

[[noreturn]] void fatal(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

VmConfig configOf(VirtualMachine &VM) {
  VmConfig C;
  C.ThreadedDispatch = VM.interp().threadedDispatch();
  C.AsyncCompile = VM.compiler().pipeline().async();
  C.CompileThreads = VM.compiler().pipeline().threads();
  C.Mutators = VM.mutatorThreads();
  return C;
}

/// A span around one op that, when tracing, carries the op's counter deltas
/// as span arguments. With several mutators only the calling context's own
/// interpreter counters are read (the shared ones are racy mid-run).
class OpSpan {
public:
  OpSpan(Tracer &T, VirtualMachine &VM, const char *Name, int64_t Op,
         unsigned Tid = 0)
      : T(T), VM(VM), Tid(Tid) {
    if (!T.enabled())
      return;
    Before = snapshot();
    H = T.begin(Tid, Name, Op);
  }
  ~OpSpan() {
    if (!T.enabled())
      return;
    Snap A = snapshot();
    char Buf[200];
    std::snprintf(Buf, sizeof(Buf),
                  "\"insts\":%llu,\"sim_cycles\":%llu,\"gc\":%llu,"
                  "\"tib_swings\":%llu,\"compiles\":%llu",
                  (unsigned long long)(A.Insts - Before.Insts),
                  (unsigned long long)(A.Cycles - Before.Cycles),
                  (unsigned long long)(A.Gc - Before.Gc),
                  (unsigned long long)(A.Swings - Before.Swings),
                  (unsigned long long)(A.Compiles - Before.Compiles));
    T.end(Tid, H, Buf);
  }
  OpSpan(const OpSpan &) = delete;
  OpSpan &operator=(const OpSpan &) = delete;

private:
  struct Snap {
    uint64_t Insts = 0, Cycles = 0, Gc = 0, Swings = 0, Compiles = 0;
  };
  Snap snapshot() const {
    Snap S;
    S.Insts = VM.interp(Tid).stats().Insts;
    S.Cycles = VM.interp(Tid).stats().Cycles;
    if (VM.multiMutator())
      return S;
    S.Cycles = VM.totalCycles();
    S.Gc = VM.heap().stats().GcCount;
    S.Swings = VM.mutation().stats().ObjectTibSwings;
    const CompilerStats &C = VM.compiler().stats();
    S.Compiles = C.CompilesAtLevel[0] + C.CompilesAtLevel[1] +
                 C.CompilesAtLevel[2] + C.SpecialCompiles;
    return S;
  }
  Tracer &T;
  VirtualMachine &VM;
  unsigned Tid;
  int H = -1;
  Snap Before;
};

/// Calls M through the validating front end; false on a VMError.
bool runChecked(VirtualMachine &VM, MethodId M, std::vector<Value> Args) {
  return static_cast<bool>(VM.run(M, Args));
}

/// The plan-derivation thresholds the figure benches use.
OfflineConfig offlineConfig() {
  OfflineConfig C;
  C.HotStateMinFraction = 0.05;
  return C;
}

// --- Pass-structured single-mutator workloads ----------------------------------

/// A workload whose guest state is re-initialized at the start of every
/// *pass* (untimed), followed by PassOps timed ops and an untimed output
/// check. Re-initializing keeps every pass's output identical, so one
/// mutation-off reference checks all of them, however many passes fit in the
/// timed phase.
class PassWorkload : public Workload {
public:
  void reference(Window &W) override {
    Scope S(Tr, "bench:reference");
    LayerCounters Before = counters();
    for (unsigned I = 0; I < RefPasses; ++I)
      runPass(&W, PassOps);
    W.CodeBytes = syncedCodeBytes();
    W.Layers = LayerCounters::delta(counters(), Before);
    W.ActivationCycle = activationCycle();
  }

  void timed(int64_t DeadlineNs, Window &W) override {
    Scope S(Tr, "bench:timed");
    LayerCounters Before = counters();
    while (nowNs() < DeadlineNs)
      runPass(&W, PassOps);
    W.Layers = LayerCounters::delta(counters(), Before);
  }

protected:
  using Workload::Workload;

  /// Untimed: resets the guest state for a pass.
  virtual void beginPass() = 0;
  /// One timed op; false when it raised a VMError. Cur is the window being
  /// filled (null during warm-up).
  virtual bool op(int64_t Id) = 0;
  /// Untimed: the pass's output hash.
  virtual uint64_t endPass() = 0;
  /// Cumulative layer counters of this workload's VM(s).
  virtual LayerCounters counters() = 0;
  /// Compiled code bytes after draining background compiles.
  virtual uint64_t syncedCodeBytes() = 0;
  /// Simulated cycles so far, on the clock ops are measured with.
  virtual uint64_t simClock() = 0;
  virtual uint64_t activationCycle() { return 0; }

  /// Runs Passes short unchecked passes of Ops ops (warm-up).
  void warm(unsigned Passes, unsigned Ops) {
    Scope S(Tr, "bench:warmup");
    for (unsigned I = 0; I < Passes; ++I)
      runPass(nullptr, Ops);
  }

  unsigned PassOps = 1;
  unsigned RefPasses = 1;
  Window *Cur = nullptr;

private:
  void runPass(Window *W, unsigned Ops) {
    Scope S(Tr, "bench:pass");
    Cur = W;
    beginPass();
    uint64_t Errors = 0;
    for (unsigned I = 0; I < Ops; ++I) {
      uint64_t C0 = simClock();
      int64_t T0 = nowNs();
      bool Ok = op(NextOp++);
      int64_t T1 = nowNs();
      Errors += !Ok;
      if (W) {
        W->OpNs.push_back(T1 - T0);
        W->OpEndNs.push_back(T1);
        W->OpCycles.push_back(static_cast<int64_t>(simClock() - C0));
        W->BusyNs += T1 - T0;
      }
    }
    uint64_t H = endPass();
    Cur = nullptr;
    if (!W)
      return;
    W->Attempted += Ops;
    // Ops that do not print are checked through their pass's output: a
    // wrong pass fails all of its ops.
    W->Failed += H != Expected ? Ops : Errors;
  }

  int64_t NextOp = 0;
};

/// Drains the compiler and collects once at a safepoint, timing both.
DrainTimes drainVm(Tracer &Tr, VirtualMachine &VM) {
  DrainTimes D;
  {
    Scope S(Tr, "compiler:OptCompiler::sync");
    int64_t T0 = nowNs();
    VM.compiler().sync();
    D.SyncS = secondsSince(T0);
  }
  VM.atSafepoint([&] {
    Scope S(Tr, "heap:Heap::collect");
    int64_t T0 = nowNs();
    VM.heap().collect();
    D.CollectUs = static_cast<double>(nowNs() - T0) / 1e3;
  });
  return D;
}

/// A library workload with an offline-derived plan and OLC database
/// installed during set-up (the paper's Figure 3 deployment).
class OfflinePlanWorkload : public PassWorkload {
public:
  void setUp(SetupTimes &S) override {
    Scope Setup(Tr, "bench:setup");
    VM.reset();
    std::unique_ptr<dchm::Workload> Src = makeSource();
    {
      Scope Sp(Tr, "analysis:runOfflinePipeline");
      int64_t T0 = nowNs();
      Plan = runOfflinePipeline(*Src, offlineConfig()).Plan;
      S.OfflineS = secondsSince(T0);
    }
    S.HotStates = Plan.numHotStates();
    {
      Scope Sp(Tr, "workload:buildProgram");
      P = Src->buildProgram();
    }
    VMOptions O;
    O.HeapBytes = HeapBytes;
    VM = std::make_unique<VirtualMachine>(*P, O);
    {
      Scope Sp(Tr, "mutation:VirtualMachine::setMutationPlan");
      int64_t T0 = nowNs();
      VM->setMutationPlan(&Plan);
      S.InstallS = secondsSince(T0);
    }
    {
      Scope Sp(Tr, "analysis:analyzeObjectLifetimeConstants");
      int64_t T0 = nowNs();
      Olc = analyzeObjectLifetimeConstants(*P, Plan);
      S.OlcS = secondsSince(T0);
    }
    VM->setOlcDatabase(&Olc);
    Cfg = configOf(*VM);
    resolveIds(*P);
    // Settle the compile ladder (every method the passes call reaches its
    // final level) so the timed phase measures steady state.
    warm(WarmPasses, WarmOps);
    VM->compiler().sync();
  }

  DrainTimes drain() override { return drainVm(Tr, *VM); }

protected:
  using PassWorkload::PassWorkload;

  virtual std::unique_ptr<dchm::Workload> makeSource() const = 0;
  virtual void resolveIds(Program &P) = 0;

  LayerCounters counters() override { return LayerCounters::read(*VM); }
  uint64_t simClock() override { return VM->totalCycles(); }
  uint64_t syncedCodeBytes() override {
    VM->compiler().sync();
    return VM->compiler().stats().TotalCodeBytes;
  }

  size_t HeapBytes = 50u << 20;
  unsigned WarmPasses = 12;
  unsigned WarmOps = 10;
  // Declaration order is destruction order reversed: the VM goes first, then
  // the program and the plan/OLC data it points at.
  MutationPlan Plan;
  OlcDatabase Olc;
  std::unique_ptr<Program> P;
  std::unique_ptr<VirtualMachine> VM;
};

// --- salarydb -------------------------------------------------------------------

class SalaryDbBench final : public OfflinePlanWorkload {
public:
  SalaryDbBench(uint64_t Seed, Tracer &T)
      : OfflinePlanWorkload(T),
        Employees(static_cast<int64_t>(392 + splitmix(Seed ^ 0x5A1A) % 17)) {
    // Long passes keep the re-initialization garbage (the heap never
    // collects here) and the first-op-of-a-pass effects small.
    PassOps = 1000;
    // Every pass constructs the database again; the rarest constructor
    // (HourlyEmployee, one employee in eight) reaches opt2 after ~60 passes.
    WarmPasses = 70;
    WarmOps = 2;
  }

  std::string opSize() const override {
    return "TestDriver.runBatch(" + std::to_string(BatchIters) + ") over " +
           std::to_string(Employees) + " employees; pass = init + " +
           std::to_string(PassOps) + " ops + checkSum";
  }

  uint64_t mutationOffReference() override {
    auto Src = makeSalaryDb();
    auto Prog = Src->buildProgram();
    VMOptions O;
    O.EnableMutation = false;
    VirtualMachine Ref(*Prog, O);
    ProgramIds Ids(*Prog);
    Ref.call(Ids.method("TestDriver", "init"), {valueI(Employees)});
    MethodId RunBatch = Ids.method("TestDriver", "runBatch");
    for (unsigned I = 0; I < PassOps; ++I)
      Ref.call(RunBatch, {valueI(BatchIters)});
    Ref.call(Ids.method("TestDriver", "checkSum"), {});
    return Ref.interp().outputHash();
  }

private:
  std::unique_ptr<dchm::Workload> makeSource() const override {
    return makeSalaryDb();
  }
  void resolveIds(Program &Prog) override {
    ProgramIds Ids(Prog);
    Init = Ids.method("TestDriver", "init");
    RunBatch = Ids.method("TestDriver", "runBatch");
    CheckSum = Ids.method("TestDriver", "checkSum");
  }
  void beginPass() override {
    Scope S(Tr, "exec:TestDriver.init");
    VM->interp().clearOutput();
    if (!runChecked(*VM, Init, {valueI(Employees)}))
      fatal("salarydb: TestDriver.init failed");
  }
  bool op(int64_t Id) override {
    OpSpan S(Tr, *VM, "exec:TestDriver.runBatch", Id);
    return runChecked(*VM, RunBatch, {valueI(BatchIters)});
  }
  uint64_t endPass() override {
    Scope S(Tr, "exec:TestDriver.checkSum");
    runChecked(*VM, CheckSum, {});
    return VM->interp().outputHash();
  }

  static constexpr int64_t BatchIters = 4;
  int64_t Employees;
  MethodId Init = 0, RunBatch = 0, CheckSum = 0;
};

// --- jbb2005 --------------------------------------------------------------------

class Jbb2005Bench final : public OfflinePlanWorkload {
public:
  Jbb2005Bench(uint64_t Seed, Tracer &T)
      : OfflinePlanWorkload(T),
        RngSeed(static_cast<int64_t>(splitmix(Seed ^ 0x1BB) >> 1)) {
    // The paper's 384 MB SPECjbb2005 heap scaled 1:16, as in the figure
    // benches: small enough that the timed phase collects.
    HeapBytes = 24u << 20;
    // Long passes: the transaction mix of a pass depends on the seed, and
    // 8000 transactions keep that variation small (and collect at least
    // once per pass). Five passes give the per-op percentiles 1000 ops.
    PassOps = 200;
    RefPasses = 5;
    // The rare transactions (4% each of the mix) need ~10k transactions of
    // samples before their methods reach opt2.
    WarmOps = 25;
  }

  std::string opSize() const override {
    return "TxManager.runBatch(" + std::to_string(OpTxns) +
           ") transactions; pass = init + " + std::to_string(PassOps) +
           " ops + checkSum";
  }

  uint64_t mutationOffReference() override {
    auto Src = makeJbb(JbbVariant::Jbb2005);
    auto Prog = Src->buildProgram();
    VMOptions O;
    O.EnableMutation = false;
    O.HeapBytes = HeapBytes;
    VirtualMachine Ref(*Prog, O);
    resolveIds(*Prog);
    resetStatics(*Prog);
    Ref.call(Init, initArgs());
    for (unsigned I = 0; I < PassOps; ++I)
      Ref.call(RunBatch, {valueI(OpTxns)});
    Ref.call(CheckSum, {});
    return Ref.interp().outputHash();
  }

private:
  std::unique_ptr<dchm::Workload> makeSource() const override {
    return makeJbb(JbbVariant::Jbb2005);
  }
  void resolveIds(Program &Prog) override {
    ProgramIds Ids(Prog);
    Init = Ids.method("TxManager", "init");
    RunBatch = Ids.method("TxManager", "runBatch");
    CheckSum = Ids.method("TxManager", "checkSum");
    SeedField = Ids.field("TxManager", "seed");
    TxDoneField = Ids.field("TxManager", "txDone");
    LastOrderField = Ids.field("TxManager", "lastOrder");
  }
  static std::vector<Value> initArgs() {
    // Variant 1 (2005 mix), 200 items, 10 districts, 300 customers: the
    // library workload's own warehouse size.
    return {valueI(1), valueI(200), valueI(10), valueI(300)};
  }
  /// Starts a pass from the same guest state: the random stream restarts at
  /// the benchmark's seed, and the two statics init() does not reset (the
  /// transaction counter and the last order) are cleared. The JTOC write
  /// is how the library's own driver seeds the stream; it is only sound for
  /// fields the mutation plan did not make state fields.
  void resetStatics(Program &Prog) {
    for (FieldId F : {SeedField, TxDoneField, LastOrderField}) {
      FieldInfo &FI = Prog.field(F);
      if (FI.IsStateField)
        fatal("jbb2005: plan made TxManager." + FI.Name +
              " a state field; the pass reset would bypass mutation");
      Prog.setStaticSlot(FI.Slot, zeroValue());
    }
    Prog.setStaticSlot(Prog.field(SeedField).Slot, valueI(RngSeed));
  }
  void beginPass() override {
    Scope S(Tr, "exec:TxManager.init");
    resetStatics(*P);
    VM->interp().clearOutput();
    if (!runChecked(*VM, Init, initArgs()))
      fatal("jbb2005: TxManager.init failed");
  }
  bool op(int64_t Id) override {
    OpSpan S(Tr, *VM, "exec:TxManager.runBatch", Id);
    return runChecked(*VM, RunBatch, {valueI(OpTxns)});
  }
  uint64_t endPass() override {
    Scope S(Tr, "exec:TxManager.checkSum");
    runChecked(*VM, CheckSum, {});
    return VM->interp().outputHash();
  }

  // Forty transactions per op keep the op's cost from hinging on whether
  // it drew one more heavy CustomerReport (13% of the mix).
  static constexpr int64_t OpTxns = 40;
  int64_t RngSeed;
  MethodId Init = 0, RunBatch = 0, CheckSum = 0;
  FieldId SeedField = 0, TxDoneField = 0, LastOrderField = 0;
};

// --- salarydb_online --------------------------------------------------------------

/// One op = one complete fully-online lifecycle on a fresh VM: hot
/// profiling, value profiling, EQ 1, plan assembly, activation, steady
/// batches with poll(), checkSum.
class SalaryDbOnlineBench final : public PassWorkload {
public:
  SalaryDbOnlineBench(uint64_t Seed, Tracer &T)
      : PassWorkload(T),
        Employees(static_cast<int64_t>(392 + splitmix(Seed ^ 0x0C1E) % 17)) {
    Ctl.Analysis.HotStateMinFraction = 0.05;
    Ctl.HotProfileCycles = 400'000;
    Ctl.ValueProfileCycles = 400'000;
  }

  std::string opSize() const override {
    return "one online lifecycle: TestDriver.init(" +
           std::to_string(Employees) + ") + " + std::to_string(Batches) +
           " x (runBatch(" + std::to_string(BatchIters) +
           ") + poll) + checkSum on a fresh VM";
  }

  uint64_t mutationOffReference() override {
    auto Prog = Src->buildProgram();
    VMOptions O;
    O.EnableMutation = false;
    VirtualMachine Ref(*Prog, O);
    ProgramIds Ids(*Prog);
    Ref.call(Ids.method("TestDriver", "init"), {valueI(Employees)});
    MethodId RunBatch = Ids.method("TestDriver", "runBatch");
    for (unsigned I = 0; I < Batches; ++I)
      Ref.call(RunBatch, {valueI(BatchIters)});
    Ref.call(Ids.method("TestDriver", "checkSum"), {});
    return Ref.interp().outputHash();
  }

  void setUp(SetupTimes &S) override {
    Scope Setup(Tr, "bench:setup");
    Cum = LayerCounters();
    SyncNs.clear();
    // One unchecked lifecycle warms the host (allocator, code caches); the
    // analysis itself runs inside every op.
    warm(1, 1);
    S.HotStates = HotStates;
  }

  DrainTimes drain() override {
    DrainTimes D;
    D.SyncS = median(SyncNs) / 1e9;
    return D;
  }

private:
  void beginPass() override {
    Scope S(Tr, "workload:buildProgram");
    P = Src->buildProgram();
  }

  bool op(int64_t Id) override {
    Scope Life(Tr, "online:lifecycle", Id);
    ProgramIds Ids(*P);
    MethodId Init = Ids.method("TestDriver", "init");
    MethodId RunBatch = Ids.method("TestDriver", "runBatch");
    MethodId CheckSum = Ids.method("TestDriver", "checkSum");
    auto VM = std::make_unique<VirtualMachine>(*P, VMOptions());
    OnlineMutationController Controller(*VM, Ctl);
    bool Ok = runChecked(*VM, Init, {valueI(Employees)});
    int64_t Longest = 0;
    for (unsigned B = 0; B < Batches; ++B) {
      {
        OpSpan S(Tr, *VM, "exec:TestDriver.runBatch", Id);
        Ok &= runChecked(*VM, RunBatch, {valueI(BatchIters)});
      }
      auto Before = Controller.phase();
      int64_t T0 = nowNs();
      {
        Scope S(Tr, "online:OnlineMutationController::poll");
        Controller.poll();
      }
      int64_t Dt = nowNs() - T0;
      Longest = std::max(Longest, Dt);
      if (Cur)
        Cur->PollNs.push_back(Dt);
      if (Cur && Before != Controller.phase() &&
          Controller.phase() == OnlineMutationController::Phase::Active)
        Cur->ActivationPollNs.push_back(Dt);
    }
    {
      Scope S(Tr, "exec:TestDriver.checkSum");
      Ok &= runChecked(*VM, CheckSum, {});
    }
    Hash = VM->interp().outputHash();
    {
      Scope S(Tr, "compiler:OptCompiler::sync");
      int64_t T0 = nowNs();
      VM->compiler().sync();
      SyncNs.push_back(static_cast<double>(nowNs() - T0));
    }
    if (Cur)
      Cur->LongestPollNs.push_back(Longest);
    LayerCounters C = LayerCounters::read(*VM);
    Cum.add(C);
    CodeBytes = C.CodeBytes;
    Activation = Controller.activationCycle();
    HotStates = Controller.plan().numHotStates();
    Cfg = configOf(*VM);
    // The controller owns the plan the VM points at: the VM goes first.
    VM.reset();
    return Ok;
  }

  uint64_t endPass() override { return Hash; }
  LayerCounters counters() override { return Cum; }
  /// Each lifecycle adds its VM's whole clock when it ends.
  uint64_t simClock() override { return Cum.TotalCycles; }
  uint64_t syncedCodeBytes() override { return CodeBytes; }
  uint64_t activationCycle() override { return Activation; }

  static constexpr int64_t BatchIters = 4;
  static constexpr unsigned Batches = 40;
  int64_t Employees;
  OnlineMutationController::Config Ctl;
  std::unique_ptr<dchm::Workload> Src = makeSalaryDb();
  std::unique_ptr<Program> P;
  LayerCounters Cum;
  uint64_t Hash = 0, CodeBytes = 0, Activation = 0, HotStates = 0;
  std::vector<double> SyncNs;
};

// --- warehouses_mt ----------------------------------------------------------------

// The multi-warehouse program of the repository's thread-scaling bench:
// TxLogger is the mutable class (`mode` is its state field, log() branches
// on it) and Warehouse.work swings a thread-confined logger between the two
// hot states every 64 transactions. It allocates everything it touches and
// stores no static, per the guest threading contract.
const char *WarehouseSource = R"(
class TxLogger {
  field mode: i64
  field acc: i64
  ctor <init>(%m: i64) {
    putfield %this, TxLogger.mode, %m
    %z = consti 0
    putfield %this, TxLogger.acc, %z
    ret
  }
  method setMode(%m: i64) -> void {
    putfield %this, TxLogger.mode, %m
    ret
  }
  method log(%v: i64) -> void {
    %m = getfield %this, TxLogger.mode
    %a = getfield %this, TxLogger.acc
    %zero = consti 0
    %one = consti 1
    %t0 = cmpeq %m, %zero
    cbnz %t0, @m0
    %t1 = cmpeq %m, %one
    cbnz %t1, @m1
    %k2 = consti 7
    %v2 = mul %v, %k2
    %n2 = add %a, %v2
    putfield %this, TxLogger.acc, %n2
    ret
  @m0:
    %n0 = add %a, %v
    putfield %this, TxLogger.acc, %n0
    ret
  @m1:
    %k1 = consti 3
    %v1 = mul %v, %k1
    %n1 = add %a, %v1
    putfield %this, TxLogger.acc, %n1
    ret
  }
  method total() -> i64 {
    %a = getfield %this, TxLogger.acc
    ret %a
  }
}
class Warehouse {
  method work(%txns: i64) -> i64 static {
    %lg = new TxLogger
    %zero = consti 0
    callspecial TxLogger.<init>(%lg, %zero)
    %t = consti 0
    %one = consti 1
    %thirteen = consti 13
    %sixtyfour = consti 64
    %two = consti 2
  @head:
    %c = cmplt %t, %txns
    cbz %c, @done
    %v = rem %t, %thirteen
    callvirtual TxLogger.log(%lg, %v)
    %f = rem %t, %sixtyfour
    cbnz %f, @next
    %blk = div %t, %sixtyfour
    %m = rem %blk, %two
    callvirtual TxLogger.setMode(%lg, %m)
  @next:
    %t = add %t, %one
    br @head
  @done:
    %r = callvirtual TxLogger.total(%lg)
    print %r
    ret %r
  }
  method main() -> i64 static {
    %n = consti 2000
    %r = callstatic Warehouse.work(%n)
    ret %r
  }
}
)";

MutationPlan makeLoggerPlan(Program &P) {
  ProgramIds Ids(P);
  MutableClassPlan CP;
  CP.Cls = Ids.cls("TxLogger");
  CP.InstanceStateFields = {Ids.field("TxLogger", "mode")};
  HotState S0, S1;
  S0.InstanceVals = {valueI(0)};
  S1.InstanceVals = {valueI(1)};
  CP.HotStates = {S0, S1};
  CP.MutableMethods = {Ids.method("TxLogger", "log"),
                       Ids.method("TxLogger", "total")};
  MutationPlan Plan;
  Plan.Classes.push_back(CP);
  return Plan;
}

std::unique_ptr<Program> assembleWarehouse() {
  AssemblyResult R = assembleProgram(WarehouseSource);
  if (!R.ok())
    fatal("warehouses_mt: assembly failed: " + R.Error);
  return std::move(R.P);
}

class WarehousesMtBench final : public Workload {
public:
  WarehousesMtBench(uint64_t Seed, Tracer &T, unsigned N)
      : Workload(T), N(N),
        Txns(static_cast<int64_t>(4000 + splitmix(Seed ^ 0x3A7E) % 41)) {}

  unsigned mutators() const override { return N; }

  std::string opSize() const override {
    return "Warehouse.work(" + std::to_string(Txns) + ") per mutator via "
           "callOn, " + std::to_string(N) + " mutators";
  }

  uint64_t mutationOffReference() override {
    auto Prog = assembleWarehouse();
    VMOptions O;
    O.EnableMutation = false;
    O.MutatorThreads = 1;
    VirtualMachine Ref(*Prog, O);
    Ref.call(ProgramIds(*Prog).method("Warehouse", "work"), {valueI(Txns)});
    return Ref.interp().outputHash();
  }

  void setUp(SetupTimes &S) override {
    Scope Setup(Tr, "bench:setup");
    VM.reset();
    {
      Scope Sp(Tr, "asm:assembleProgram");
      P = assembleWarehouse();
    }
    Plan = makeLoggerPlan(*P);
    S.HotStates = Plan.numHotStates();
    VMOptions O;
    O.MutatorThreads = N;
    VM = std::make_unique<VirtualMachine>(*P, O);
    {
      Scope Sp(Tr, "mutation:VirtualMachine::setMutationPlan");
      int64_t T0 = nowNs();
      VM->setMutationPlan(&Plan);
      S.InstallS = secondsSince(T0);
    }
    Cfg = configOf(*VM);
    ProgramIds Ids(*P);
    Work = Ids.method("Warehouse", "work");
    // Classic warm-up on context 0 (compiles, promotes, installs specials),
    // then one concurrent round so every context has run the steady path.
    {
      Scope Sp(Tr, "exec:Warehouse.main");
      VM->call(Ids.method("Warehouse", "main"), {});
    }
    Window Discard;
    round(8, Discard);
    VM->compiler().sync();
  }

  void reference(Window &W) override {
    Scope S(Tr, "bench:reference");
    LayerCounters Before = LayerCounters::read(*VM);
    round(RefOps, W);
    VM->compiler().sync();
    W.CodeBytes = VM->compiler().stats().TotalCodeBytes;
    W.Layers = LayerCounters::delta(LayerCounters::read(*VM), Before);
  }

  void timed(int64_t DeadlineNs, Window &W) override {
    Scope S(Tr, "bench:timed");
    LayerCounters Before = LayerCounters::read(*VM);
    loop(W, [&](unsigned, uint64_t) { return nowNs() < DeadlineNs; });
    W.Layers = LayerCounters::delta(LayerCounters::read(*VM), Before);
  }

  DrainTimes drain() override { return drainVm(Tr, *VM); }

private:
  void round(uint64_t Ops, Window &W) {
    loop(W, [&](unsigned, uint64_t Done) { return Done < Ops; });
  }

  /// Runs every mutator's closed loop while More(thread, opsDone) holds,
  /// then merges the per-thread results into W.
  template <typename Pred> void loop(Window &W, Pred More) {
    struct PerThread {
      std::vector<int64_t> OpNs, OpEndNs, OpCycles, StopNs;
      uint64_t Failed = 0;
    };
    std::vector<PerThread> Th(N);
    int64_t T0 = nowNs();
    VM->runMutators([&](unsigned T) {
      PerThread &Me = Th[T];
      for (uint64_t K = 0; More(T, K); ++K) {
        // Mutator 0 of a traced run probes time-to-safepoint every
        // ProbeEvery ops: the wait from the request to the closure start.
        if (Tr.enabled() && T == 0 && K % ProbeEvery == ProbeEvery - 1) {
          Scope Sp(Tr, "safepoint:VirtualMachine::atSafepoint", -1, T);
          int64_t R = nowNs();
          VM->atSafepoint([&] { Me.StopNs.push_back(nowNs() - R); });
        }
        int64_t S = nowNs();
        uint64_t C0 = VM->interp(T).stats().Cycles;
        bool Ok;
        {
          OpSpan Span(Tr, *VM, "exec:Warehouse.work",
                      static_cast<int64_t>(K), T);
          VM->interp(T).clearOutput();
          VM->callOn(T, Work, {valueI(Txns)});
          Ok = VM->interp(T).outputHash() == Expected;
        }
        int64_t E = nowNs();
        Me.OpNs.push_back(E - S);
        Me.OpEndNs.push_back(E);
        Me.OpCycles.push_back(
            static_cast<int64_t>(VM->interp(T).stats().Cycles - C0));
        Me.Failed += !Ok;
      }
    });
    W.BusyNs += nowNs() - T0;
    for (PerThread &Me : Th) {
      W.OpNs.insert(W.OpNs.end(), Me.OpNs.begin(), Me.OpNs.end());
      W.StopNs.insert(W.StopNs.end(), Me.StopNs.begin(), Me.StopNs.end());
      W.OpEndNs.insert(W.OpEndNs.end(), Me.OpEndNs.begin(), Me.OpEndNs.end());
      W.OpCycles.insert(W.OpCycles.end(), Me.OpCycles.begin(),
                        Me.OpCycles.end());
      W.Attempted += Me.OpNs.size();
      W.Failed += Me.Failed;
    }
  }

  static constexpr uint64_t RefOps = 16;
  static constexpr uint64_t ProbeEvery = 16;
  unsigned N;
  int64_t Txns;
  MethodId Work = 0;
  MutationPlan Plan;
  std::unique_ptr<Program> P;
  std::unique_ptr<VirtualMachine> VM;
};

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "salarydb", "jbb2005", "salarydb_online", "warehouses_mt"};
  return Names;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       Tracer &T) {
  if (Name == "salarydb")
    return std::make_unique<SalaryDbBench>(Seed, T);
  if (Name == "jbb2005")
    return std::make_unique<Jbb2005Bench>(Seed, T);
  if (Name == "salarydb_online")
    return std::make_unique<SalaryDbOnlineBench>(Seed, T);
  if (Name == "warehouses_mt") {
    unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
    return std::make_unique<WarehousesMtBench>(Seed, T,
                                               std::min(MaxMutators, Hw));
  }
  return nullptr;
}

} // namespace perfbench
