//===-- core/VM.h - The MiniVM facade -------------------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// VirtualMachine wires the substrates together the way the paper's modified
/// Jikes RVM does: the interpreter executes compiled code and reports events;
/// the adaptive system compiles lazily and recompiles hot methods; the
/// mutation engine (when enabled and given a plan) maintains the dynamically
/// mutated class hierarchy; the heap collects with roots from the frames and
/// the JTOC. This is the primary public entry point of the library:
///
/// \code
///   Program P;            // build classes/methods with FunctionBuilder
///   ...
///   P.link();
///   VirtualMachine VM(P, Options);
///   VM.setMutationPlan(&Plan);            // from OfflinePipeline or by hand
///   VM.call(MainMethod, {});
///   RunMetrics M = VM.metrics();          // cycles, code bytes, TIB bytes
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_CORE_VM_H
#define DCHM_CORE_VM_H

#include "adaptive/AdaptiveSystem.h"
#include "compiler/OptCompiler.h"
#include "exec/Interpreter.h"
#include "mutation/MutationManager.h"
#include "runtime/Heap.h"
#include "runtime/Program.h"
#include "runtime/Safepoint.h"
#include "support/Error.h"

#include <functional>
#include <memory>
#include <vector>

namespace dchm {

/// VM configuration for one run, fixed when the VirtualMachine is built.
struct VMOptions {
  /// Master switch for dynamic class hierarchy mutation. With it off the
  /// plan is ignored entirely — the baseline configuration of every
  /// "without mutation" bar in the paper's figures.
  bool EnableMutation = true;
  size_t HeapBytes = 50u << 20; ///< Jikes' default 50 MB heap
  AdaptiveConfig Adaptive;
  InlinerConfig Inline;
  /// Number of application (mutator) threads (docs/threads.md); 0 runs as
  /// 1. At 1 every code path is the single-mutator path — bit-identical
  /// output, cycle counters and fingerprints. At N>1 the safepoint
  /// rendezvous protocol activates and each mutator context gets its own
  /// interpreter and current heap blocks.
  unsigned MutatorThreads = 1;
};

/// Everything the experiment harness reads after (or during) a run.
struct RunMetrics {
  uint64_t ExecCycles = 0;
  uint64_t CompileCycles = 0;
  uint64_t SpecialCompileCycles = 0;
  uint64_t GcCycles = 0;
  uint64_t MutationCycles = 0;
  uint64_t TotalCycles = 0; ///< sum of the above (the run's "time")
  size_t CodeBytes = 0;
  size_t SpecialCodeBytes = 0;
  size_t ClassTibBytes = 0;
  size_t SpecialTibBytes = 0;
  unsigned SpecialCompiles = 0; ///< specialized bodies compiled
  uint64_t GcCount = 0;
  uint64_t Insts = 0;
  uint64_t Invocations = 0;
  uint64_t OutputHash = 0;
  MutationStats Mutation;
  AdaptiveStats Adaptive;
  InlineStats Inlining;
};

/// Passive observer of state-field events, used by the value profiler
/// (Figure 3's "find hot states" step): it sees the triggers the mutation
/// engine would see for the fields it observes, without mutating anything.
class StateObserver {
public:
  virtual ~StateObserver() = default;
  virtual void observeInstanceStore(Object *O, FieldInfo &F) = 0;
  // (construction-time stores are filtered out before observers run)
  virtual void observeStaticStore(FieldInfo &F) = 0;
  virtual void observeConstructorExit(Object *O, MethodInfo &Ctor) = 0;
};

/// The assembled MiniVM.
class VirtualMachine : public VMCallbacks, public RootProvider {
public:
  VirtualMachine(Program &P, const VMOptions &Opts);

  /// Installs the mutation plan on the Program (records it, marks state
  /// fields, creates special TIBs). Ignored when mutation is disabled. The
  /// plan must outlive the VM.
  void setMutationPlan(const MutationPlan *Plan);

  /// Wires OLC analysis results into the compiler (specialization inlining).
  void setOlcDatabase(const OlcDatabase *Db);

  /// Attaches a value-profiling observer. The interpreter reports stores
  /// only to fields marked IsStateField (charged as patch code: the online
  /// controller's candidates) or IsObserved (free: the offline pipeline's
  /// branch-tested fields); constructor exits are always reported.
  void setStateObserver(StateObserver *Obs) { Observer = Obs; }

  /// Attaches a consistency-audit hook (normally a ConsistencyAuditor from
  /// the testing library) to every interpreter's safepoint and the mutation
  /// engine's transition points, and makes the compiler verify each body it
  /// finishes. Attaching is how a run audits, so attach before the first
  /// call or plan install; only bodies compiled afterwards are verified.
  /// Auditing never changes simulated cycles, instruction counts, or output
  /// — it is host-side work only. Pass null to detach.
  void setAuditHook(AuditHook *H);

  /// Stop-the-world reverse of setMutationPlan: retires the installed plan
  /// (MutationManager::retirePlan, which clears Program::mutationPlan, the
  /// one record of it every layer reads). Retired special TIBs and
  /// specialized bodies stay allocated until the Program is destroyed, as
  /// promoted-away bodies do. Afterwards setMutationPlan can install a new
  /// plan (or the same one) again. Returns false when no plan is active.
  bool retireMutationPlan();

  /// Invokes a method (receiver first for instance methods) on mutator
  /// context 0.
  Value call(MethodId M, const std::vector<Value> &Args);

  // --- Multi-mutator mode (docs/threads.md) --------------------------------
  /// Mutator thread count (>= 1).
  unsigned mutatorThreads() const { return Opts.MutatorThreads; }
  bool multiMutator() const { return mutatorThreads() > 1; }

  /// Runs Body(t) for t in [0, mutatorThreads()): t=0 on the calling
  /// thread, the rest on freshly spawned threads, each running its own
  /// interpreter (which allocates from its own heap blocks) on its own
  /// safepoint slot. Returns after every mutator finished. With one mutator
  /// this is exactly Body(0) — no threads, no protocol.
  ///
  /// Reference arguments passed to callOn() from inside Body must be rooted
  /// host-side (LocalRootScope registered before runMutators): the callee
  /// frame does not exist yet when a leader could collect.
  void runMutators(const std::function<void(unsigned)> &Body);

  /// call() on a specific mutator context. Only call T from the thread
  /// runMutators bound to T (context 0 also works outside runMutators).
  Value callOn(unsigned T, MethodId M, const std::vector<Value> &Args);

  /// Runs Fn with every mutator stopped: a plain call at N=1, a safepoint
  /// rendezvous (leader = calling thread) at N>1. Re-entrant from inside a
  /// closure. This is how every stop-the-world operation — plan install and
  /// retirement, GC, audits — is phrased now that "the world" can be more
  /// than one thread.
  void atSafepoint(const std::function<void()> &Fn);

  SafepointManager &safepoints() { return Safepoints; }

  /// Validating, recoverable-error front end to call(): rejects bad entry
  /// points and argument lists with a VMError instead of aborting, and
  /// surfaces a heap soft-budget overrun (Heap::budgetError) recorded
  /// during the run. Execution itself is identical to call().
  Expected<Value> run(MethodId M, const std::vector<Value> &Args);

  /// Total simulated cycles so far: execution + compilation + GC +
  /// mutation bookkeeping. The drivers use this as the clock.
  uint64_t totalCycles() const;

  RunMetrics metrics();

  Program &program() { return P; }
  Heap &heap() { return TheHeap; }
  Interpreter &interp() { return *Interps[0]; }
  /// Interpreter of mutator context T.
  Interpreter &interp(unsigned T) { return *Interps[T]; }
  OptCompiler &compiler() { return Compiler; }
  AdaptiveSystem &adaptive() { return Adaptive; }
  MutationManager &mutation() { return Mutation; }
  /// The options this VM runs with (MutatorThreads raised to at least 1).
  const VMOptions &options() const { return Opts; }

  // --- VMCallbacks (interpreter events) ------------------------------------
  CompiledMethod *ensureCompiled(MethodInfo &M) override;
  void onMethodEntry(MethodInfo &M) override;
  void onBackedge(MethodInfo &M) override;
  void onInstanceStateStore(Object *O, FieldInfo &F,
                            bool DuringConstruction) override;
  void onStaticStateStore(FieldInfo &F) override;
  void onConstructorExit(Object *O, MethodInfo &Ctor) override;

  // --- RootProvider (frames + JTOC static reference slots) -----------------
  void enumerateRoots(std::vector<Object *> &Roots) override;

private:
  Program &P;
  VMOptions Opts;
  Heap TheHeap;
  OptCompiler Compiler;
  MutationManager Mutation;
  AdaptiveSystem Adaptive;
  /// One interpreter per mutator context; [0] is the classic single-mutator
  /// interpreter every existing API routes through.
  std::vector<std::unique_ptr<Interpreter>> Interps;
  SafepointManager Safepoints;
  StateObserver *Observer = nullptr;
};

} // namespace dchm

#endif // DCHM_CORE_VM_H
