//===-- testing/ConsistencyAuditor.h - Runtime invariant audits -*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime consistency auditor: an AuditHook implementation that walks
/// the heap and the Program's dispatch structures asserting the invariants
/// the distributed dynamic class mutation algorithm (parts I and II) is
/// supposed to maintain at every quiescent point:
///
///  - every mutable-class object whose constructor has finished sits on the
///    TIB matching its current instance state (class TIB when no hot state
///    matches);
///  - special TIBs agree with the class TIB on every non-mutable slot, and
///    hold special code in mutable slots exactly when the static part of
///    their hot state matches the current static field values;
///  - JTOC entries of static methods point at the code selected by the
///    current static field state;
///  - IMT entries route interface calls to the same code virtual dispatch
///    would pick (mutable classes must have no Direct entries left);
///  - subclasses of mutable classes saw general-code propagation only;
///  - each specialized body sits in exactly one Specials slot, the one for
///    the state it was compiled for, and is not invalidated there.
///
/// The auditor is strictly read-only with respect to simulated state: it
/// never charges cycles, never compiles, and never touches a TIB, so an
/// audited run is bit-identical to an unaudited one. State matching is
/// reimplemented here (not delegated to MutationManager) precisely because
/// the manager's matcher charges ExtraCycles.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_TESTING_CONSISTENCYAUDITOR_H
#define DCHM_TESTING_CONSISTENCYAUDITOR_H

#include "core/VM.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dchm {

/// One invariant violation found by an audit pass.
struct AuditViolation {
  std::string Check;   ///< which invariant (short identifier)
  std::string Detail;  ///< human-readable specifics (class/method/object)
  std::string Trigger; ///< what ran the audit ("safepoint", a transition, ...)
};

/// Walks heap + dispatch structures at safepoints and after mutation
/// transitions, recording invariant violations. Attach with
/// VM.setAuditHook(&Auditor) (gated by VMOptions::AuditConsistency).
///
/// Thread safety (multi-mutator mode): the tick/audit/violation counters are
/// atomic so any mutator may hit onSafepoint concurrently, and the audit walk
/// itself runs under VM.atSafepoint() — i.e. with every other mutator parked —
/// so Recorded and CurTrigger are only ever written world-stopped. Transition
/// audits fired from inside a mutation closure re-enter the open rendezvous
/// inline rather than deadlocking on a nested request.
class ConsistencyAuditor : public AuditHook {
public:
  /// Stride N audits every Nth safepoint (transitions always audit).
  explicit ConsistencyAuditor(VirtualMachine &VM, uint64_t Stride = 1)
      : VM(VM), Stride(Stride ? Stride : 1) {}

  void setStride(uint64_t N) { Stride = N ? N : 1; }

  // --- AuditHook -----------------------------------------------------------
  void onSafepoint() override {
    if ((SafepointTick.fetch_add(1, std::memory_order_relaxed) + 1) % Stride ==
        0)
      auditNow("safepoint");
  }
  void onMutationTransition(const char *Where) override { auditNow(Where); }

  /// Runs one full audit pass immediately (world-stopped at N>1).
  void auditNow(const char *Trigger);

  uint64_t auditsRun() const { return Audits.load(std::memory_order_relaxed); }
  uint64_t safepointsSeen() const {
    return SafepointTick.load(std::memory_order_relaxed);
  }
  /// Total violations found (keeps counting past the recording cap).
  uint64_t violationCount() const {
    return TotalViolations.load(std::memory_order_relaxed);
  }
  bool clean() const { return violationCount() == 0; }
  /// Recorded violations (capped at MaxRecorded to keep broken runs cheap).
  const std::vector<AuditViolation> &violations() const { return Recorded; }
  void reset() {
    Recorded.clear();
    TotalViolations.store(0, std::memory_order_relaxed);
    Audits.store(0, std::memory_order_relaxed);
    SafepointTick.store(0, std::memory_order_relaxed);
  }

  /// Multi-line human-readable summary of the recorded violations.
  std::string report() const;

  static constexpr size_t MaxRecorded = 64;

private:
  /// The audit walk proper. Only runs world-stopped (see auditNow).
  void auditStopped(const char *Trigger);

  void addViolation(const char *Check, const std::string &Detail);

  // Read-only re-implementations of the mutation engine's state matching
  // (MutationManager's versions charge simulated cycles).
  bool staticPartMatches(const MutableClassPlan &CP, size_t S) const;
  int anyStaticMatch(const MutableClassPlan &CP) const;
  int matchInstanceState(const MutableClassPlan &CP, const Object *O) const;
  /// The code pointer algorithm part I/II should have routed for mutable
  /// method M in hot-state context S (S < 0 selects the class-TIB /
  /// static-only rule using anyStaticMatch).
  CompiledMethod *expectedMutableCode(const MutableClassPlan &CP,
                                      const MethodInfo &M, int S) const;

  void auditHeap(const std::vector<Object *> &UnderCtor);
  void auditTibs();
  void auditJtoc();
  void auditImts();
  void auditSpecials();

  VirtualMachine &VM;
  uint64_t Stride;
  std::atomic<uint64_t> SafepointTick{0};
  std::atomic<uint64_t> Audits{0};
  std::atomic<uint64_t> TotalViolations{0};
  // Written only world-stopped (inside auditStopped).
  const char *CurTrigger = "";
  std::vector<AuditViolation> Recorded;
};

} // namespace dchm

#endif // DCHM_TESTING_CONSISTENCYAUDITOR_H
