//===-- runtime/DecodedBody.h - Threaded dispatch form ----------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The form in which the threaded interpreter loop walks a compiled body,
/// stamped once when the CompiledMethod is built. Each Instruction of the
/// body carries its own dispatch entry (Instruction::Handler, Count,
/// Cycles): the handler that runs when dispatch lands on it, how many IR
/// instructions that handler executes (a fused group of 1-3), and the sum
/// of their per-opcode simulated cycles. The loop charges a whole group on
/// dispatch. That is exact by construction: no member of a group can trap
/// or return, and only the last may branch, so a group that starts always
/// runs all of its members. See docs/dispatch.md §1.
///
/// Handler ids below NumOpcodes are the single-instruction handlers (the id
/// is the opcode). The fused forms follow, expanded from the opcode lists
/// below, which the interpreter's label table expands in the same order.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_DECODEDBODY_H
#define DCHM_RUNTIME_DECODEDBODY_H

#include "ir/Function.h"
#include "support/Error.h"

#include <cstdint>

namespace dchm {

/// Integer arithmetic fused behind a ConstI: cheap, non-trapping ops.
#define DCHM_CONST_ARITH_OPS(X)                                                \
  X(Add) X(Sub) X(Mul) X(And) X(Or) X(Xor) X(Shl) X(Shr)
/// Binops fused with a following Move (and Br) of their result: every binop
/// and float compare except Div and Rem, which trap on a zero divisor.
#define DCHM_FUSED_BINOPS(X)                                                   \
  X(Add) X(Sub) X(Mul) X(And) X(Or) X(Xor) X(Shl) X(Shr)                       \
  X(FAdd) X(FSub) X(FMul) X(FDiv) X(FCmpEQ) X(FCmpLT) X(FCmpLE)
/// Integer compares fused with a following Cbnz/Cbz on their result.
#define DCHM_BRANCH_CMPS(X)                                                    \
  X(CmpEQ) X(CmpNE) X(CmpLT) X(CmpLE) X(CmpGT) X(CmpGE)

/// Handler ids. Names spell the fused group in instruction order.
enum class HandlerId : uint8_t {
  LastOpcode = NumOpcodes - 1, ///< ids 0..LastOpcode: one instruction
#define DCHM_X(OP) ConstI_##OP,
  DCHM_CONST_ARITH_OPS(DCHM_X)
#undef DCHM_X
#define DCHM_X(OP) OP##_Move,
  DCHM_FUSED_BINOPS(DCHM_X)
#undef DCHM_X
#define DCHM_X(OP) OP##_Move_Br,
  DCHM_FUSED_BINOPS(DCHM_X)
#undef DCHM_X
#define DCHM_X(OP) OP##_Cbnz,
  DCHM_BRANCH_CMPS(DCHM_X)
#undef DCHM_X
#define DCHM_X(OP) OP##_Cbz,
  DCHM_BRANCH_CMPS(DCHM_X)
#undef DCHM_X
  NumHandlers
};

/// Stamps every instruction of F with its dispatch entry. Fails when F is
/// empty, does not end in Br or Ret, or has a branch target outside the
/// body: those checks are what let the threaded loop dispatch with no
/// per-instruction bound check.
VMError decodeBody(IRFunction &F);

} // namespace dchm

#endif // DCHM_RUNTIME_DECODEDBODY_H
