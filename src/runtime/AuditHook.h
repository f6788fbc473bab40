//===-- runtime/AuditHook.h - Runtime consistency audit hook --*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A narrow observer interface the interpreter and the mutation engine call
/// at the points where the dynamically mutated hierarchy is supposed to be
/// consistent: the interpreter's invocation-boundary safepoint, and the end
/// of every part I/II transition in the MutationManager. The production
/// implementation is testing/ConsistencyAuditor, which walks the heap and
/// the Program asserting the paper's invariants; the hook lives down here in
/// runtime/ so exec/ and mutation/ can call it without depending on the
/// testing library.
///
/// Implementations must be read-only with respect to simulated state: they
/// run on the app thread between instructions, and charging cycles or
/// touching stats from an audit would make audited and unaudited runs
/// diverge, destroying the determinism the auditor exists to protect.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_AUDITHOOK_H
#define DCHM_RUNTIME_AUDITHOOK_H

namespace dchm {

/// Observer of runtime consistency checkpoints.
class AuditHook {
public:
  virtual ~AuditHook() = default;

  /// Called at the interpreter's invocation-boundary safepoint: all
  /// dispatch structures are quiescent here. Fired on every method entry, so
  /// implementations are expected to sample (see ConsistencyAuditor's
  /// stride).
  virtual void onSafepoint() = 0;

  /// Called by the MutationManager after it finishes one transition of the
  /// distributed mutation algorithm (a part I store/ctor-exit action, a
  /// part II recompilation routing, or an online object migration). Where
  /// names the transition for diagnostics.
  virtual void onMutationTransition(const char *Where) = 0;
};

} // namespace dchm

#endif // DCHM_RUNTIME_AUDITHOOK_H
