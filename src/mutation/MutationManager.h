//===-- mutation/MutationManager.h - Dynamic class mutation ---*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The core of the paper: the runtime engine that dynamically mutates the
/// class hierarchy. Installing a MutationPlan creates one special TIB per
/// hot state of every mutable class that depends on instance state fields
/// (a replicant of the class TIB) and rewires single-method IMT slots of
/// mutable classes to TIB offsets. At runtime it executes the *distributed
/// dynamic class mutation algorithm*:
///
///  - Part I (Figure 4), triggered at state-field assignments and
///    constructor exits: re-point an object's TIB pointer to the special
///    TIB matching its instance state (or back to the class TIB), and on
///    static state-field assignments re-point the compiled-code pointers in
///    special TIBs / the class TIB / the JTOC between general and special
///    code depending on whether the static state matches a hot state.
///
///  - Part II (Figure 5), triggered when the adaptive system recompiles a
///    mutable method at a high optimization level: route the fresh special
///    compiled code into the special TIBs (or the class TIB for classes
///    that depend only on static fields, which also covers private methods;
///    or the JTOC for static methods), with general code propagated to
///    subclasses by the installer.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_MUTATION_MUTATIONMANAGER_H
#define DCHM_MUTATION_MUTATIONMANAGER_H

#include "adaptive/AdaptiveSystem.h"
#include "mutation/MutationPlan.h"
#include "runtime/AuditHook.h"
#include "runtime/Heap.h"
#include "runtime/Object.h"
#include "runtime/Program.h"

namespace dchm {

/// Mutation activity counters (Figure 12's TIB accounting comes from the
/// Program; these feed the overhead discussion).
struct MutationStats {
  uint64_t ObjectTibSwings = 0;    ///< object TIB pointer re-points
  uint64_t CodePointerUpdates = 0; ///< TIB/JTOC code pointer re-points
  uint64_t StateMatches = 0;       ///< part I checks that matched a hot state
  uint64_t StateMisses = 0;        ///< part I checks that matched nothing
  uint64_t ExtraCycles = 0;        ///< simulated cost of all of the above
  uint64_t PlanRetirements = 0;    ///< retirePlan() runs
  uint64_t StateEvictions = 0;     ///< hot states demoted to general code
};

/// Fault-injection switches for the consistency auditor's self-test: each
/// one silently skips a step of the distributed mutation algorithm,
/// breaking an invariant the auditor must then catch. Never set outside
/// tests and the fuzz harness.
struct MutationDebugFlags {
  /// Part I: skip object TIB re-points (objects keep stale TIBs while
  /// their state fields change). Dispatch stays *correct* — general code
  /// computes the same results — which is exactly why only the auditor,
  /// not a differential oracle, can catch it.
  bool SkipTibSwing = false;
  /// Part I/II: skip TIB/JTOC code-pointer re-points on static state
  /// changes and recompilations (can leave specialized code live for a
  /// state it was not compiled for — a correctness bug, not just an
  /// invariant break).
  bool SkipCodePointerUpdate = false;
  /// retirePlan(): skip the heap pass that swings objects off their special
  /// TIBs, stranding them on retired TIBs the dispatch structures no longer
  /// know about (heap.tib-foreign for the auditor to catch).
  bool SkipRetireSwing = false;
};

/// Runtime engine for dynamic class hierarchy mutation.
class MutationManager : public RecompileListener {
public:
  explicit MutationManager(Program &P) : P(P) {}

  /// Installs the plan: marks state fields and mutable methods, creates the
  /// special TIBs, and rewires mutable classes' IMT slots. Must run before
  /// execution starts (the paper feeds the plan to the JVM at startup).
  void installPlan(const MutationPlan &Plan);

  /// Stop-the-world reverse of installPlan: swings every object on a
  /// special TIB back to its class TIB, restores general code pointers in
  /// class TIBs and the JTOC, un-rewires IMT slots back to Direct entries,
  /// unmarks state fields and mutable methods, hands the special TIBs and
  /// specialized bodies to the Program's reclamation list. After this the
  /// hierarchy is exactly as if no plan had ever been installed, and a
  /// new plan (or the same one) can be installed again. Returns the number
  /// of objects that sat on special TIBs (counted even when the
  /// SkipRetireSwing fault leaves them stranded).
  uint64_t retirePlan(Heap &H);

  // --- Code/TIB budget (graceful degradation) ------------------------------
  /// Wires in the heap so per-state eviction can swing residents off the
  /// TIB being retired (retirePlan takes the heap explicitly).
  void setHeap(Heap *H) { TheHeap = H; }
  /// Budget over specialized-code bytes + special-TIB bytes; 0 = unlimited.
  void setCodeBudget(size_t Bytes) { CodeBudgetBytes = Bytes; }
  size_t codeBudget() const { return CodeBudgetBytes; }
  /// Current specialized footprint: live special-TIB bytes plus the
  /// deterministic budget bytes of every specialized body.
  size_t specialFootprintBytes() const;
  /// Evicts benefit-ranked-coldest hot states until the footprint fits the
  /// budget (no-op when unlimited). Returns the number of evictions.
  uint64_t enforceBudget();
  /// Evicts the single coldest evictable hot state (churn-triggered
  /// degradation). Returns false when nothing is evictable.
  bool evictColdestState();

  const MutationPlan *plan() const { return Installed; }

  /// Attaches a consistency-audit hook notified after every part I/II
  /// transition (null detaches). See runtime/AuditHook.h.
  void setAuditHook(AuditHook *H) { Audit = H; }

  /// Fault-injection switches (see MutationDebugFlags). Mutable on purpose:
  /// the fuzz harness flips them mid-run to prove the auditor catches the
  /// resulting invariant breaks.
  MutationDebugFlags &debugFlags() { return Debug; }

  // --- Algorithm part I triggers (called from the interpreter hooks) ------
  void onInstanceStateStore(Object *O, FieldInfo &F);
  void onStaticStateStore(FieldInfo &F);
  void onConstructorExit(Object *O, MethodInfo &Ctor);

  /// Online-activation support: when a plan is installed mid-run, objects
  /// constructed earlier are still on their class TIBs even if their state
  /// matches a hot state. This stop-the-world heap pass re-classes them —
  /// the online analogue of the constructor-exit action, piggybacking on
  /// the collector's object walk (the paper avoids a pointer registry
  /// because the Jikes GC moves objects; a walk at a safepoint is safe).
  /// Returns the number of objects migrated to special TIBs.
  uint64_t migrateExistingObjects(Heap &H);

  // --- Algorithm part II (RecompileListener) --------------------------------
  void onMutableMethodRecompiled(MethodInfo &M) override;

  /// Snapshot of the activity counters. By value: the internal counters are
  /// atomics (part I instance triggers run concurrently on every mutator
  /// thread), so callers get a plain consistent-enough copy. Exact totals
  /// at N=1 or with the world stopped.
  MutationStats stats() const {
    MutationStats S;
    S.ObjectTibSwings = Stats.ObjectTibSwings.load(std::memory_order_relaxed);
    S.CodePointerUpdates =
        Stats.CodePointerUpdates.load(std::memory_order_relaxed);
    S.StateMatches = Stats.StateMatches.load(std::memory_order_relaxed);
    S.StateMisses = Stats.StateMisses.load(std::memory_order_relaxed);
    S.ExtraCycles = Stats.ExtraCycles.load(std::memory_order_relaxed);
    S.PlanRetirements = Stats.PlanRetirements.load(std::memory_order_relaxed);
    S.StateEvictions = Stats.StateEvictions.load(std::memory_order_relaxed);
    return S;
  }

private:
  /// Index of the hot state whose *instance* part matches O's current field
  /// values, or -1.
  int matchInstanceState(const MutableClassPlan &CP, Object *O);
  /// True when the current static field values match hot state S's static
  /// part (vacuously true when the class has no static state fields).
  bool staticPartMatches(const MutableClassPlan &CP, size_t S) const;
  /// Index of some hot state whose static part matches, or -1.
  int anyStaticMatch(const MutableClassPlan &CP) const;
  /// Re-points every dispatch-structure entry for mutable method M of CP
  /// according to the current static state (the common core of part II and
  /// the static branch of part I).
  void refreshMethodPointers(const MutableClassPlan &CP, MethodInfo &M);
  void swingObjectTib(Object *O, TIB *To);
  void updateCodePointer(CompiledMethod *&SlotRef, CompiledMethod *To);
  /// Demotes hot state S of plan entry Idx to general code: swings its
  /// residents to the class TIB, retires its special TIB (slot goes null;
  /// vector size is preserved so state indices stay stable) and its
  /// no-longer-referenced specialized bodies, and re-routes method pointers.
  bool evictState(size_t Idx, size_t S);

  /// Notifies the audit hook, if any, that one transition finished.
  void noteTransition(const char *Where) {
    if (Audit)
      Audit->onMutationTransition(Where);
  }

  /// MutationStats with atomic fields: the instance-state half of part I
  /// runs concurrently on every mutator thread (it touches only the
  /// receiver object plus these counters), while everything that writes a
  /// shared dispatch structure runs under a rendezvous.
  struct AtomicMutationStats {
    std::atomic<uint64_t> ObjectTibSwings{0};
    std::atomic<uint64_t> CodePointerUpdates{0};
    std::atomic<uint64_t> StateMatches{0};
    std::atomic<uint64_t> StateMisses{0};
    std::atomic<uint64_t> ExtraCycles{0};
    std::atomic<uint64_t> PlanRetirements{0};
    std::atomic<uint64_t> StateEvictions{0};
  };

  Program &P;
  const MutationPlan *Installed = nullptr;
  Heap *TheHeap = nullptr;
  AuditHook *Audit = nullptr;
  MutationDebugFlags Debug;
  AtomicMutationStats Stats;
  size_t CodeBudgetBytes = 0; ///< 0 = unlimited
  /// Benefit signal for eviction ranking: per (plan entry, hot state)
  /// count of part I swings *into* the state. Simulated-deterministic at
  /// N=1; atomic because concurrent mutators bump it in part I.
  std::vector<std::vector<std::atomic<uint64_t>>> SwingIns;
};

} // namespace dchm

#endif // DCHM_MUTATION_MUTATIONMANAGER_H
