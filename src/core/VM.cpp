//===-- core/VM.cpp - The MiniVM facade ---------------------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/VM.h"

#include "analysis/OlcAnalysis.h"
#include "support/Debug.h"

#include <algorithm>
#include <thread>

namespace dchm {

namespace {
/// The VM treats 0 mutator threads as 1.
VMOptions withAtLeastOneMutator(VMOptions O) {
  O.MutatorThreads = std::max(1u, O.MutatorThreads);
  return O;
}
} // namespace

VirtualMachine::VirtualMachine(Program &P, const VMOptions &Options)
    : P(P), Opts(withAtLeastOneMutator(Options)),
      TheHeap(Opts.HeapBytes, Opts.MutatorThreads), Compiler(P, Opts.Inline),
      Mutation(P, TheHeap),
      Adaptive(P, Compiler, Opts.Adaptive, Mutation) {
  DCHM_CHECK(P.isLinked(), "VirtualMachine requires a linked program");
  // The plan lives on the Program, so a Program serves one mutating VM.
  DCHM_CHECK(!P.mutationPlan(), "program already carries an installed plan");
  unsigned NThreads = mutatorThreads();
  Interps.reserve(NThreads);
  for (unsigned T = 0; T < NThreads; ++T) {
    Interps.push_back(std::make_unique<Interpreter>(P, TheHeap, *this, T));
    Interps.back()->setSkipTopTierSamples(Opts.Adaptive.SampleInterval == 1);
  }
  TheHeap.setRootProvider(this);
  TheHeap.setSafepointExecutor(
      [this](const std::function<void()> &Fn) { atSafepoint(Fn); });
}

void VirtualMachine::setAuditHook(AuditHook *H) {
  Compiler.setVerifyBodies(H != nullptr);
  for (auto &I : Interps)
    I->setAuditHook(H);
  Mutation.setAuditHook(H);
}

void VirtualMachine::atSafepoint(const std::function<void()> &Fn) {
  if (multiMutator())
    Safepoints.run(Fn);
  else
    Fn(); // one mutator: any host call out of the interpreter is the world
          // stopped, exactly the pre-refactor semantics
}

void VirtualMachine::setMutationPlan(const MutationPlan *Plan) {
  if (!Opts.EnableMutation || !Plan || Plan->empty())
    return;
  atSafepoint([&] {
    Mutation.installPlan(*Plan);
    // Installation is stop-the-world and includes re-classing objects that
    // already exist (online activation, or any install after the first
    // call). It must happen before the recompilation refresh so part II's
    // audit notifications never observe a half-installed heap.
    Mutation.migrateExistingObjects();
    Olc = analyzeObjectLifetimeConstants(P, *Plan);
    Compiler.setOlcDatabase(&Olc);
    // Online installation: methods that got hot before the plan existed need
    // their specialized versions generated now.
    Adaptive.refreshMutableMethods();
  });
}

Value VirtualMachine::call(MethodId M, const std::vector<Value> &Args) {
  Value V = Interps[0]->invoke(M, Args);
  if (AfterCall)
    AfterCall();
  return V;
}

Value VirtualMachine::callOn(unsigned T, MethodId M,
                             const std::vector<Value> &Args) {
  DCHM_CHECK(T < Interps.size(), "callOn: no such mutator context");
  return Interps[T]->invoke(M, Args);
}

void VirtualMachine::runMutators(const std::function<void(unsigned)> &Body) {
  if (!multiMutator()) {
    Body(0); // no threads, no protocol: the classic path
    return;
  }
  const unsigned NThreads = mutatorThreads();
  auto Mutator = [&](unsigned T) {
    SafepointSlot *Slot = Safepoints.registerThread();
    Interps[T]->setSafepointSlot(Slot);
    Body(T);
    Interps[T]->setSafepointSlot(nullptr);
    Safepoints.unregisterThread(Slot);
  };

  std::vector<std::thread> Threads;
  Threads.reserve(NThreads - 1);
  for (unsigned T = 1; T < NThreads; ++T)
    Threads.emplace_back(Mutator, T);
  Mutator(0);
  for (std::thread &Th : Threads)
    Th.join();
}

Expected<Value> VirtualMachine::run(MethodId M, const std::vector<Value> &Args) {
  if (M >= P.numMethods())
    return VMError::error("run: no such method id " + std::to_string(M));
  MethodInfo &MI = P.method(M);
  if (!MI.HasBody)
    return VMError::error("run: method '" + MI.Name + "' has no body");
  size_t Want = MI.numArgsWithReceiver();
  if (Args.size() != Want)
    return VMError::error("run: method '" + MI.Name + "' takes " +
                          std::to_string(Want) + " argument(s), got " +
                          std::to_string(Args.size()));
  Value V = call(M, Args);
  // The heap budget is soft and sticky: execution completed deterministically
  // even past the budget, but the overrun surfaces as a recoverable error
  // instead of being dropped (or aborting).
  if (TheHeap.budgetError())
    return TheHeap.budgetError();
  return V;
}

uint64_t VirtualMachine::totalCycles() const {
  // Multi-mutator runs read this per-thread clock mid-run too; other
  // contexts' counters are only exact at joins/safepoints, which is fine
  // for pacing (docs/threads.md).
  uint64_t Exec = 0;
  for (const auto &I : Interps)
    Exec += I->stats().Cycles;
  return Exec + Compiler.stats().TotalCompileCycles +
         TheHeap.stats().GcCycles + Mutation.stats().ExtraCycles;
}

RunMetrics VirtualMachine::metrics() {
  RunMetrics M;
  // Per-thread counters merge deterministically: contexts are summed in
  // thread-index order after the mutators joined.
  for (const auto &I : Interps) {
    M.ExecCycles += I->stats().Cycles;
    M.Insts += I->stats().Insts;
    M.Invocations += I->stats().Invocations;
  }
  M.CompileCycles = Compiler.stats().TotalCompileCycles;
  M.SpecialCompileCycles = Compiler.stats().SpecialCompileCycles;
  M.GcCycles = TheHeap.stats().GcCycles;
  M.MutationCycles = Mutation.stats().ExtraCycles;
  M.TotalCycles = totalCycles();
  M.CodeBytes = Compiler.stats().TotalCodeBytes;
  M.SpecialCodeBytes = Compiler.stats().SpecialCodeBytes;
  M.ClassTibBytes = P.classTibBytes();
  M.SpecialTibBytes = P.specialTibBytes();
  M.SpecialCompiles = Compiler.stats().SpecialCompiles;
  M.GcCount = TheHeap.stats().GcCount;
  if (!multiMutator()) {
    M.OutputHash = Interps[0]->outputHash();
  } else {
    // Combined fingerprint: FNV-1a over the per-thread hashes in thread
    // order. Each per-thread hash is deterministic given the seed; the
    // combination is therefore deterministic too.
    uint64_t H = 1469598103934665603ull;
    for (const auto &I : Interps) {
      uint64_t X = I->outputHash();
      for (int B = 0; B < 8; ++B) {
        H ^= (X >> (8 * B)) & 0xFFu;
        H *= 1099511628211ull;
      }
    }
    M.OutputHash = H;
  }
  M.Mutation = Mutation.stats();
  M.Adaptive = Adaptive.stats();
  M.Inlining = Compiler.stats().Inlining;
  return M;
}

CompiledMethod *VirtualMachine::ensureCompiled(MethodInfo &M) {
  // Already-compiled is the overwhelmingly common case after warmup; the
  // plain read is safe because General is only written with the world
  // stopped (while this thread is parked), and a stale-by-one-promotion body
  // is legitimate code to run (frames keep executing replaced bodies anyway).
  if (CompiledMethod *CM = M.General)
    return CM;
  CompiledMethod *CM = nullptr;
  atSafepoint([&] { CM = Adaptive.ensureCompiled(M); });
  return CM;
}

void VirtualMachine::onMethodEntry(MethodInfo &M) {
  // Lock-free sampling; promotion (a dispatch-structure write) re-checks
  // and runs with the world stopped.
  if (Adaptive.sample(M))
    atSafepoint([&] { Adaptive.promote(M); });
}

void VirtualMachine::onBackedge(MethodInfo &M) {
  if (Adaptive.sample(M))
    atSafepoint([&] { Adaptive.promote(M); });
}

void VirtualMachine::onInstanceStateStore(Object *O, FieldInfo &F,
                                          bool DuringConstruction) {
  // Construction-time stores are handled by the constructor-exit action
  // (Figure 4); acting on them would mutate half-initialized objects and
  // pollute the value profile with partial tuples.
  if (DuringConstruction)
    return;
  // Part I's instance half runs concurrently in multi-mutator mode: it
  // touches only the receiver (thread-confined by the guest threading
  // contract, docs/threads.md) plus atomic counters.
  if (F.IsStateField && P.mutationPlan())
    Mutation.onInstanceStateStore(O, F);
  if (Observer)
    Observer->observeInstanceStore(O, F);
}

void VirtualMachine::onStaticStateStore(FieldInfo &F) {
  // The static half of part I re-points shared dispatch structures
  // (TIB/JTOC code pointers): stop the world first. A store that is only
  // observed never stops it.
  if (F.IsStateField && P.mutationPlan())
    atSafepoint([&] { Mutation.onStaticStateStore(F); });
  if (Observer)
    Observer->observeStaticStore(F);
}

void VirtualMachine::onConstructorExit(Object *O, MethodInfo &Ctor) {
  // Stamp before the mutation engine runs (and audits): once part I has
  // classified the object, the strict TIB-matches-state invariant applies.
  if (O)
    O->setCtorDone();
  if (P.mutationPlan())
    Mutation.onConstructorExit(O, Ctor);
  if (Observer)
    Observer->observeConstructorExit(O, Ctor);
}

void VirtualMachine::enumerateRoots(std::vector<Object *> &Roots) {
  for (auto &I : Interps)
    I->enumerateRoots(Roots);
  for (uint32_t S = 0; S < P.numStaticSlots(); ++S)
    if (P.staticSlotType(S) == Type::Ref && P.getStaticSlot(S).R)
      Roots.push_back(P.getStaticSlot(S).R);
}

void startDrive(VirtualMachine &VM, const DriveDirective &D) {
  DCHM_CHECK(D.Init != NoMethodId, "driving a text without a #!drive line");
  Program &P = VM.program();
  if (D.SeedField != NoFieldId)
    P.setStaticSlot(P.field(D.SeedField).Slot, valueI(D.Seed));
  VM.call(D.Init, D.InitArgs);
}

void runDrive(VirtualMachine &VM, const DriveDirective &D, double Scale) {
  startDrive(VM, D);
  long Batches = std::max(static_cast<long>(D.Batches * Scale), D.MinBatches);
  for (long B = 0; B < Batches; ++B)
    VM.call(D.Batch, D.BatchArgs);
  VM.call(D.Check, D.CheckArgs);
}

} // namespace dchm
