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

#include <atomic>
#include <cstdint>

namespace dchm {

/// A count any mutator may bump (the instance half of part I runs
/// concurrently on every mutator thread). A copy reads it, exactly at N=1
/// or with the world stopped.
class SharedCounter {
public:
  SharedCounter() = default;
  SharedCounter(const SharedCounter &O) : V(O.V.load()) {}
  SharedCounter &operator=(const SharedCounter &O) {
    V = O.V.load();
    return *this;
  }
  operator uint64_t() const { return V; }
  void operator+=(uint64_t N) { V += N; }
  void operator++(int) { V++; }

private:
  std::atomic<uint64_t> V{0};
};

/// Mutation activity counters (Figure 12's TIB accounting comes from the
/// Program; these feed the overhead discussion).
struct MutationStats {
  SharedCounter ObjectTibSwings;    ///< object TIB pointer re-points
  SharedCounter CodePointerUpdates; ///< TIB/JTOC code pointer re-points
  SharedCounter StateMatches;       ///< part I checks that matched a hot state
  SharedCounter StateMisses;        ///< part I checks that matched nothing
  SharedCounter ExtraCycles;        ///< simulated cost of all of the above
  SharedCounter StateEvictions;     ///< Kept for perfbench/: always 0.
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
};

/// Runtime engine for dynamic class hierarchy mutation. The installed plan
/// lives on the Program (Program::mutationPlan); the engine keeps no copy.
class MutationManager : public RecompileListener {
public:
  /// H is the heap whose objects part I re-classes.
  MutationManager(Program &P, Heap &H) : P(P), H(H) {}

  /// Installs the plan: records it on the Program, marks state fields and
  /// mutable methods, creates the special TIBs, and rewires mutable
  /// classes' IMT slots. The plan must outlive its installation and stays
  /// installed for the Program's lifetime; a second install is fatal.
  void installPlan(const MutationPlan &Plan);

  /// Attaches a consistency-audit hook notified after every part I/II
  /// transition (null detaches). See runtime/AuditHook.h.
  void setAuditHook(AuditHook *Hook) { Audit = Hook; }

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
  uint64_t migrateExistingObjects();

  // --- Algorithm part II (RecompileListener) --------------------------------
  void onMutableMethodRecompiled(MethodInfo &M) override;

  /// Snapshot of the activity counters (see SharedCounter).
  MutationStats stats() const { return Stats; }

private:
  /// The plan entry of O's class when that class is mutable on instance
  /// state fields (the only classes whose objects part I re-classes).
  const MutableClassPlan *instancePlanOf(const Object *O) const;
  /// Part I's one re-classing step (Figure 4): charges the state check,
  /// counts a match (and, with CountMiss, a miss), and points O at the
  /// special TIB of the matching hot state, or at the class TIB when none
  /// matches. Returns true when O's chosen TIB is special.
  bool reclassify(Object *O, const MutableClassPlan &CP, bool CountMiss);
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
  /// The slot M's general code lives in: its JTOC entry when static,
  /// otherwise its slot in the declaring class TIB.
  CompiledMethod *&homeSlot(MethodInfo &M);
  void swingObjectTib(Object *O, TIB *To);
  /// The one code-pointer write, for TIB slots and JTOC entries alike.
  void updateCodePointer(CompiledMethod *&SlotRef, CompiledMethod *To);

  /// Notifies the audit hook, if any, that one transition finished.
  void noteTransition(const char *Where) {
    if (Audit)
      Audit->onMutationTransition(Where);
  }

  Program &P;
  Heap &H;
  AuditHook *Audit = nullptr;
  MutationDebugFlags Debug;
  MutationStats Stats;
};

} // namespace dchm

#endif // DCHM_MUTATION_MUTATIONMANAGER_H
