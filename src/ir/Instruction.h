//===-- ir/Instruction.h - MiniVM IR instruction --------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single flat instruction record. The IR is a linear list of these per
/// function; branch targets are instruction indices, so "basic blocks" are
/// derived views (see CFG.h) rather than owning containers. This keeps the
/// interpreter a simple indexed loop and makes cloning for specialization
/// (the core mutation operation) a plain vector copy.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_IR_INSTRUCTION_H
#define DCHM_IR_INSTRUCTION_H

#include "ir/Opcode.h"
#include "ir/Type.h"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace dchm {

/// Virtual register index within a function.
using Reg = uint16_t;

/// Sentinel meaning "no register" (e.g. void Ret, no destination).
constexpr Reg NoReg = std::numeric_limits<Reg>::max();

/// Most arguments one call instruction may pass, receiver included. Link
/// rejects a longer call.
constexpr size_t MaxCallArgs = 16;

/// One MiniVM IR instruction.
///
/// Field usage by opcode family (the families, and their result and operand
/// types, are columns of the opcode table DCHM_OPCODES in ir/Opcode.h):
///  - binop/compare: Dst, A, B; unop (Neg/FNeg/I2F/F2I) and Move: Dst, A
///  - ConstI: Dst, Imm; ConstF: Dst, FImm
///  - branches: Imm = target instruction index; Cbnz/Cbz also read A
///  - field ops: Imm = FieldId, Aux = resolved slot; A = object, B = value
///  - calls: Imm = MethodId, Aux = resolved dispatch slot, Args = arguments
///  - New/InstanceOf/CheckCast: Imm = ClassId
///  - NewArray/ALoad/AStore: Ty = element type
struct Instruction {
  Opcode Op;
  Type Ty = Type::I64; ///< Result type, or element type for array ops.
  Reg Dst = NoReg;
  Reg A = NoReg;
  Reg B = NoReg;
  Reg C = NoReg;
  /// The threaded loop's dispatch entry (runtime/DecodedBody.h), stamped by
  /// decodeBody into a compiled body only; zero elsewhere. It sits in what
  /// would be padding before Imm, so it costs no bytes.
  uint8_t Handler = 0; ///< HandlerId of the group starting here
  uint8_t Count = 0;   ///< IR instructions that handler executes (1-3)
  uint16_t Cycles = 0; ///< sum of their opcodeCycles
  int64_t Imm = 0;
  double FImm = 0.0;
  uint32_t Aux = 0;
  std::vector<Reg> Args; ///< Call arguments; empty for non-calls.

  /// True if this instruction writes a register.
  bool hasDst() const { return Dst != NoReg; }
};
static_assert(sizeof(Instruction) == 64,
              "the dispatch entry must stay inside an Instruction's padding");

} // namespace dchm

#endif // DCHM_IR_INSTRUCTION_H
