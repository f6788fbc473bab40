//===-- compiler/Eval.h - Shared operation semantics ----------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One definition of the arithmetic semantics, shared by the interpreter and
/// the constant folder so that folding provably preserves behavior (the
/// property tests compare optimized against unoptimized execution).
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_COMPILER_EVAL_H
#define DCHM_COMPILER_EVAL_H

#include "ir/Opcode.h"
#include "runtime/Value.h"
#include "support/Debug.h"

#include <cstdint>
#include <limits>

namespace dchm {

/// True if the binary integer/float operation can be evaluated at compile
/// time with the given operands (rules out trapping division and the
/// INT64_MIN / -1 overflow case).
inline bool canFoldBinop(Opcode Op, Value A, Value B) {
  switch (Op) {
  case Opcode::Div:
  case Opcode::Rem:
    return B.I != 0 &&
           !(A.I == std::numeric_limits<int64_t>::min() && B.I == -1);
  default:
    return true;
  }
}

/// Evaluates a binary operation with Java's rules: shifts mask their count
/// to 6 bits, integer overflow wraps (two's complement), so INT64_MIN / -1
/// is INT64_MIN and INT64_MIN % -1 is 0. A zero divisor aborts.
inline Value evalBinop(Opcode Op, Value A, Value B) {
  auto WrapAdd = [](int64_t X, int64_t Y) {
    return static_cast<int64_t>(static_cast<uint64_t>(X) +
                                static_cast<uint64_t>(Y));
  };
  switch (Op) {
  case Opcode::Add:
    return valueI(WrapAdd(A.I, B.I));
  case Opcode::Sub:
    return valueI(static_cast<int64_t>(static_cast<uint64_t>(A.I) -
                                       static_cast<uint64_t>(B.I)));
  case Opcode::Mul:
    return valueI(static_cast<int64_t>(static_cast<uint64_t>(A.I) *
                                       static_cast<uint64_t>(B.I)));
  case Opcode::Div:
    DCHM_CHECK(B.I != 0, "division by zero");
    // x / -1 is a wrapping negation; the host's INT64_MIN / -1 traps.
    if (B.I == -1)
      return valueI(static_cast<int64_t>(0 - static_cast<uint64_t>(A.I)));
    return valueI(A.I / B.I);
  case Opcode::Rem:
    DCHM_CHECK(B.I != 0, "remainder by zero");
    if (B.I == -1)
      return valueI(0);
    return valueI(A.I % B.I);
  case Opcode::And:
    return valueI(A.I & B.I);
  case Opcode::Or:
    return valueI(A.I | B.I);
  case Opcode::Xor:
    return valueI(A.I ^ B.I);
  case Opcode::Shl:
    return valueI(static_cast<int64_t>(static_cast<uint64_t>(A.I)
                                       << (B.I & 63)));
  case Opcode::Shr:
    return valueI(A.I >> (B.I & 63));
  case Opcode::FAdd:
    return valueF(A.F + B.F);
  case Opcode::FSub:
    return valueF(A.F - B.F);
  case Opcode::FMul:
    return valueF(A.F * B.F);
  case Opcode::FDiv:
    return valueF(A.F / B.F);
  case Opcode::CmpEQ:
    return valueI(A.I == B.I);
  case Opcode::CmpNE:
    return valueI(A.I != B.I);
  case Opcode::CmpLT:
    return valueI(A.I < B.I);
  case Opcode::CmpLE:
    return valueI(A.I <= B.I);
  case Opcode::CmpGT:
    return valueI(A.I > B.I);
  case Opcode::CmpGE:
    return valueI(A.I >= B.I);
  case Opcode::FCmpEQ:
    return valueI(A.F == B.F);
  case Opcode::FCmpLT:
    return valueI(A.F < B.F);
  case Opcode::FCmpLE:
    return valueI(A.F <= B.F);
  default:
    DCHM_UNREACHABLE("not a binary operation");
  }
}

/// True if the opcode is a binary operation evalBinop understands: a binop
/// or compare of the opcode table.
inline bool isBinop(Opcode Op) {
  OpFamily F = opcodeInfo(Op).Family;
  return F == OpFamily::Binop || F == OpFamily::Compare;
}

/// Java's double-to-long conversion: truncates toward zero, saturates out
/// of range values (±inf included) and maps NaN to 0. A bare cast is
/// undefined for all three.
inline int64_t f2iSaturating(double D) {
  if (D != D)
    return 0;
  if (D >= 9223372036854775808.0) // 2^63
    return std::numeric_limits<int64_t>::max();
  if (D <= -9223372036854775808.0)
    return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(D);
}

/// Evaluates a unary operation (Neg/FNeg/I2F/F2I).
inline Value evalUnop(Opcode Op, Value A) {
  switch (Op) {
  case Opcode::Neg:
    return valueI(static_cast<int64_t>(0 - static_cast<uint64_t>(A.I)));
  case Opcode::FNeg:
    return valueF(-A.F);
  case Opcode::I2F:
    return valueF(static_cast<double>(A.I));
  case Opcode::F2I:
    return valueI(f2iSaturating(A.F));
  default:
    DCHM_UNREACHABLE("not a unary operation");
  }
}

/// True if the opcode is a unary operation evalUnop understands.
inline bool isUnop(Opcode Op) {
  return opcodeInfo(Op).Family == OpFamily::Unop;
}

} // namespace dchm

#endif // DCHM_COMPILER_EVAL_H
