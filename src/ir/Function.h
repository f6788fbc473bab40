//===-- ir/Function.h - MiniVM IR function --------------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IRFunction is the unit of compilation: the "bytecode" attached to a
/// MethodInfo, and also the body of every CompiledMethod the optimizer
/// produces (the MiniVM "machine code" is optimized IR executed by a
/// costed interpreter; see exec/Interpreter.h). asm/Printer.h prints one as
/// `.mvm` text that re-assembles.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_IR_FUNCTION_H
#define DCHM_IR_FUNCTION_H

#include "ir/Instruction.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dchm {

/// A function body in MiniVM IR.
struct IRFunction {
  std::string Name;
  Type RetTy = Type::Void;
  /// Number of leading registers that are arguments (receiver first for
  /// instance methods). Argument registers are never reassigned by
  /// FunctionBuilder-produced code (the verifier enforces it).
  uint16_t NumArgs = 0;
  /// Register 0 holds the receiver (`this`) of an instance method, so it
  /// is never null: the Specializer folds state-field reads off it, and DCE
  /// deletes a dead getfield off it. Set by Program::setBody.
  bool HasReceiver = false;
  /// Types of all registers, arguments included.
  std::vector<Type> RegTypes;
  std::vector<Instruction> Insts;
};

/// Index of the only instruction in F that writes R; none when no
/// instruction or more than one does.
std::optional<size_t> uniqueDef(const IRFunction &F, Reg R);

/// The bits of the constant R holds when its only definition is a ConstI or
/// a ConstF (a double's bit pattern).
std::optional<int64_t> uniqueConstDefBits(const IRFunction &F, Reg R);

} // namespace dchm

#endif // DCHM_IR_FUNCTION_H
