//===-- ir/Opcode.h - MiniVM IR opcodes -----------------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opcode set of the MiniVM register IR, together with the static traits the
/// optimizer and interpreter need (purity, terminator-ness, call-ness).
/// The set mirrors the subset of Java bytecode the paper's mechanisms touch:
/// field access (the mutation hooks live on PutField/PutStatic), the four
/// invoke flavors (virtual/static/special/interface map to the TIB, JTOC,
/// direct-entry, and IMT dispatch paths of Jikes), allocation, type tests,
/// and plain arithmetic/control flow.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_IR_OPCODE_H
#define DCHM_IR_OPCODE_H

#include <cstdint>

namespace dchm {

/// Opcodes of the MiniVM register IR.
enum class Opcode : uint8_t {
  // Constants and moves.
  ConstI,    ///< Dst = Imm (i64)
  ConstF,    ///< Dst = FImm (f64)
  ConstNull, ///< Dst = null (ref)
  Move,      ///< Dst = A (type in Ty)

  // Integer arithmetic (Dst = A op B unless noted).
  Add,
  Sub,
  Mul,
  Div, ///< Traps (VM error) on division by zero.
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  Neg, ///< Dst = -A

  // Floating-point arithmetic.
  FAdd,
  FSub,
  FMul,
  FDiv,
  FNeg,

  // Integer comparisons producing 0/1 in an i64 register.
  CmpEQ,
  CmpNE,
  CmpLT,
  CmpLE,
  CmpGT,
  CmpGE,

  // Floating-point comparisons producing 0/1.
  FCmpEQ,
  FCmpLT,
  FCmpLE,

  // Conversions.
  I2F, ///< Dst(f64) = (double)A
  F2I, ///< Dst(i64) = (int64)A, truncating; saturates, NaN -> 0

  // Control flow. Branch targets are instruction indices in Imm.
  Br,   ///< goto Imm
  Cbnz, ///< if (A != 0) goto Imm
  Cbz,  ///< if (A == 0) goto Imm
  Ret,  ///< return A (A == NoReg for void)

  // Object and array operations.
  New,      ///< Dst = new instance of class Imm
  NewArray, ///< Dst = new array of element type Ty, length A
  ALoad,    ///< Dst = A[B] (element type in Ty)
  AStore,   ///< A[B] = C (element type in Ty)
  ALen,     ///< Dst = A.length

  // Field access. Imm = FieldId; Aux = resolved slot (filled by the linker).
  GetField,  ///< Dst = A.field(Imm)
  PutField,  ///< A.field(Imm) = B   [mutation hook: algorithm part I]
  GetStatic, ///< Dst = static field Imm
  PutStatic, ///< static field Imm = A   [mutation hook: algorithm part I]

  // Calls. Imm = MethodId; Args holds the argument registers (receiver
  // first for instance calls). Aux = resolved vtable/IMT slot after linking.
  CallStatic,    ///< Dispatch through the JTOC entry.
  CallVirtual,   ///< Dispatch through the receiver's TIB (object TIB pointer).
  CallSpecial,   ///< Static binding via the declaring class (ctor/private/super).
  CallInterface, ///< Dispatch through the IMT.

  // Type tests against class Imm, via the TIB type-information entry.
  InstanceOf, ///< Dst = (A instanceof class Imm) ? 1 : 0
  CheckCast,  ///< Traps unless A is null or an instance of class Imm.
  ClassEq,    ///< Dst = (A's exact class == class Imm) ? 1 : 0. Emitted by
              ///< the guarded inliner (Jikes' class-test guard); never
              ///< written by FunctionBuilder users directly.

  // Program output (models System.out): appends to the VM output stream.
  // Aux == 0 prints the number, Aux == 1 prints A as a character.
  Print,
};

/// Total number of opcodes (for cost tables).
constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::Print) + 1;

/// Mnemonic for an opcode.
const char *opcodeName(Opcode Op);

/// True for instructions that end or redirect control flow.
inline bool isTerminator(Opcode Op) {
  return Op == Opcode::Br || Op == Opcode::Ret;
}

/// True for conditional or unconditional branches (have a target in Imm).
inline bool isBranch(Opcode Op) {
  return Op == Opcode::Br || Op == Opcode::Cbnz || Op == Opcode::Cbz;
}

/// True for the four invoke flavors.
inline bool isCall(Opcode Op) {
  return Op == Opcode::CallStatic || Op == Opcode::CallVirtual ||
         Op == Opcode::CallSpecial || Op == Opcode::CallInterface;
}

/// True if the instruction has no side effect and its result may be removed
/// when dead. Div/Rem are impure because they can trap; loads from fields,
/// array loads, and ALen are pure-but-trapping (null deref) and are treated
/// as removable when dead, matching what an aggressive JIT proves with
/// null-check elimination.
bool isRemovableWhenDead(Opcode Op);

} // namespace dchm

#endif // DCHM_IR_OPCODE_H
