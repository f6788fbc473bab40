//===-- compiler/Specializer.h - State-field specialization ---*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Specializer produces the body of a mutable method's specialized
/// compiled code: every read of a state field is replaced by the hot state's
/// constant value, after which the conventional pipeline (constant
/// propagation, branch folding, DCE, strength reduction) collapses the
/// state-dependent code. No value guards are emitted — correctness comes
/// from dispatch: the specialized code is only reachable through the special
/// TIB that the mutation engine points at objects *in* that state.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_COMPILER_SPECIALIZER_H
#define DCHM_COMPILER_SPECIALIZER_H

#include "ir/Function.h"
#include "mutation/MutationPlan.h"
#include "runtime/Program.h"

namespace dchm {

/// Rewrites state-field reads in F (the bytecode of method M) to the
/// constants of hot state StateIdx of Plan. Instance state fields are only
/// folded when loaded from the receiver (`this`, register 0): the special
/// TIB encodes the *receiver's* state, nothing is known about other objects.
/// Static state fields fold everywhere. Returns the number of loads folded.
unsigned specializeForState(IRFunction &F, const MethodInfo &M,
                            const MutableClassPlan &Plan, size_t StateIdx);

/// Number of state-field reads in F that specializeForState would fold —
/// the "M" of the paper's N > M + k inline-vs-specialize trade-off.
unsigned countSpecializableReads(const IRFunction &F, const MethodInfo &M,
                                 const MutableClassPlan &Plan);

} // namespace dchm

#endif // DCHM_COMPILER_SPECIALIZER_H
