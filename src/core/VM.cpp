//===-- core/VM.cpp - The MiniVM facade ---------------------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/VM.h"

#include "support/Debug.h"
#include "support/Env.h"

#include <algorithm>
#include <thread>
#include <unordered_set>

namespace dchm {

namespace {
/// Fills every unset host setting from its DCHM_* variable or, when that is
/// unset too, the support/Env.h table default. Explicit values win.
VMOptions resolveOptions(VMOptions O) {
  if (!O.AuditConsistency)
    O.AuditConsistency = env::boolValue("DCHM_AUDIT");
  if (!O.CodeBudgetBytes)
    O.CodeBudgetBytes = static_cast<size_t>(env::intValue("DCHM_CODE_BUDGET"));
  if (!O.MutatorThreads)
    O.MutatorThreads = static_cast<unsigned>(env::intValue("DCHM_THREADS"));
  O.MutatorThreads = std::max(1u, *O.MutatorThreads);
  return O;
}
} // namespace

VirtualMachine::VirtualMachine(Program &P, const VMOptions &Options)
    : P(P), Opts(resolveOptions(Options)), TheHeap(Opts.HeapBytes),
      Compiler(P), Adaptive(P, Compiler, Opts.Adaptive), Mutation(P) {
  DCHM_CHECK(P.isLinked(), "VirtualMachine requires a linked program");
  Compiler.inlinerConfig() = Opts.Inline;
  Compiler.setVerifyBodies(*Opts.AuditConsistency);
  Mutation.setHeap(&TheHeap);
  Mutation.setCodeBudget(*Opts.CodeBudgetBytes);
  unsigned NThreads = mutatorThreads();
  Interps.reserve(NThreads);
  for (unsigned T = 0; T < NThreads; ++T) {
    Interps.push_back(std::make_unique<Interpreter>(P, TheHeap, *this));
    Interps.back()->setSkipTopTierSamples(Opts.Adaptive.SampleInterval == 1);
  }
  TheHeap.setRootProvider(this);
  if (multiMutator()) {
    TheHeap.setConcurrent(true);
    TheHeap.setSafepointExecutor(
        [this](const std::function<void()> &Fn) { Safepoints.run(Fn); });
  }
}

void VirtualMachine::setAuditHook(AuditHook *H) {
  if (!auditEnabled() && H)
    return;
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
    Adaptive.setPlan(Plan);
    Adaptive.setRecompileListener(&Mutation);
    Compiler.setPlan(Plan);
    MutationActive = true;
    // Installation is stop-the-world and includes re-classing objects that
    // already exist (mid-run activation or re-install after retirement). It
    // must happen before the budget check and the recompilation refresh so
    // their audit notifications never observe a half-installed heap.
    Mutation.migrateExistingObjects(TheHeap);
    Mutation.enforceBudget();
    // Online installation: methods that got hot before the plan existed need
    // their specialized versions generated now.
    Adaptive.refreshMutableMethods();
  });
}

void VirtualMachine::setOlcDatabase(const OlcDatabase *Db) {
  Compiler.setOlcDatabase(Db);
}

bool VirtualMachine::retireMutationPlan() {
  if (!MutationActive || !Mutation.plan())
    return false;
  atSafepoint([&] {
    Mutation.retirePlan(TheHeap);
    Adaptive.setPlan(nullptr);
    Adaptive.setRecompileListener(nullptr);
    Compiler.setPlan(nullptr);
    MutationActive = false;
    reclaimRetired(); // re-entrant atSafepoint: runs inline
  });
  return true;
}

void VirtualMachine::reclaimRetired() {
  atSafepoint([&] {
    // Epoch-based safety: with a live frame on any mutator, a return
    // address may still point into a retired body; wait for the next
    // quiescent call. A parked mutator mid-invocation keeps its frames, so
    // this naturally defers until every context is at top level.
    for (auto &I : Interps)
      if (I->liveFrames() != 0)
        return;
    std::unordered_set<const TIB *> InUse;
    TheHeap.forEachObject([&](Object *O) {
      if (O->Tib)
        InUse.insert(O->Tib);
    });
    P.drainReclaimList(InUse);
  });
}

Value VirtualMachine::call(MethodId M, const std::vector<Value> &Args) {
  return Interps[0]->invoke(M, Args);
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
  // Heap caches are created up front from this thread so the cache registry
  // never changes while mutators run (it is only walked world-stopped).
  std::vector<Heap::ThreadCache *> Caches(NThreads);
  for (unsigned T = 0; T < NThreads; ++T)
    Caches[T] = TheHeap.registerMutator();

  auto Mutator = [&](unsigned T) {
    TheHeap.bindMutator(Caches[T]);
    SafepointSlot *Slot = Safepoints.registerThread();
    Interps[T]->setSafepointSlot(Slot);
    Body(T);
    Interps[T]->setSafepointSlot(nullptr);
    // Fold this thread's allocation buffer with the world stopped, then
    // leave the protocol. Order matters: after unregisterThread this thread
    // no longer polls, so it must not touch anything shared — it only
    // joins/exits — or a leader would wait on it forever.
    Safepoints.run([&] { TheHeap.unregisterMutator(Caches[T]); });
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
  if (multiMutator()) {
    // Already-compiled is the overwhelmingly common case after warmup; the
    // plain read is safe because General is only written under a rendezvous
    // (while this thread is parked), and a stale-by-one-promotion body is
    // legitimate code to run (frames keep executing replaced bodies anyway).
    if (CompiledMethod *CM = M.General)
      return CM;
    CompiledMethod *CM = nullptr;
    Safepoints.run([&] { CM = Adaptive.ensureCompiled(M); });
    return CM;
  }
  return Adaptive.ensureCompiled(M);
}

void VirtualMachine::onMethodEntry(MethodInfo &M) {
  if (multiMutator()) {
    // Lock-free sampling; promotion (a dispatch-structure write) re-checks
    // and runs with the world stopped.
    if (Adaptive.sampleConcurrent(M))
      Safepoints.run([&] { Adaptive.promoteStopped(M); });
    return;
  }
  Adaptive.sample(M);
}

void VirtualMachine::onBackedge(MethodInfo &M) {
  if (multiMutator()) {
    if (Adaptive.sampleConcurrent(M))
      Safepoints.run([&] { Adaptive.promoteStopped(M); });
    return;
  }
  Adaptive.sample(M);
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
  if (MutationActive)
    Mutation.onInstanceStateStore(O, F);
  if (Observer)
    Observer->observeInstanceStore(O, F);
}

void VirtualMachine::onStaticStateStore(FieldInfo &F) {
  if (MutationActive) {
    // The static half of part I re-points shared dispatch structures
    // (TIB/JTOC code pointers): stop the world first when there is one.
    if (multiMutator())
      Safepoints.run([&] { Mutation.onStaticStateStore(F); });
    else
      Mutation.onStaticStateStore(F);
  }
  if (Observer)
    Observer->observeStaticStore(F);
}

void VirtualMachine::onConstructorExit(Object *O, MethodInfo &Ctor) {
  // Stamp before the mutation engine runs (and audits): once part I has
  // classified the object, the strict TIB-matches-state invariant applies.
  if (O)
    O->CtorDone = true;
  if (MutationActive)
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

} // namespace dchm
