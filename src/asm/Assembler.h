//===-- asm/Assembler.h - MiniVM textual assembler ------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The textual front end for MiniVM programs: the workloads
/// (src/workloads/*.mvm) and experiments are written in it, and
/// asm/Printer.h prints any Program or body back into it
/// (docs/mvm-format.md). The format mirrors the FunctionBuilder API
/// one-to-one:
///
/// \code
///   # SalaryDB, abbreviated
///   class Employee {
///     field salary: f64
///     method raise() -> void {
///       %s = getfield %this, Employee.salary
///       %i = constf 0.25
///       %n = fadd %s, %i
///       putfield %this, Employee.salary, %n
///       ret
///     }
///   }
///   class SalaryEmployee extends Employee {
///     field grade: i64 private
///     ctor init(%g: i64) {
///       putfield %this, SalaryEmployee.grade, %g
///       ret
///     }
///     method raise() -> void {
///       %g = getfield %this, SalaryEmployee.grade
///       %c = consti 2
///       %t = cmpeq %g, %c
///       cbz %t, @other
///       ...
///     @other:
///       ret
///     }
///   }
/// \endcode
///
/// Declarations are processed in a first pass (so forward references
/// between classes work), bodies in a second. Errors are reported with
/// line numbers; the assembler never aborts on bad input.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_ASM_ASSEMBLER_H
#define DCHM_ASM_ASSEMBLER_H

#include "runtime/Program.h"

#include <memory>
#include <string>

namespace dchm {

/// Result of assembling a source text.
struct AssemblyResult {
  /// The linked program, or null on error.
  std::unique_ptr<Program> P;
  /// First error, with a 1-based line number prefix ("line 12: ...").
  std::string Error;

  bool ok() const { return P != nullptr; }
};

/// Assembles MiniVM assembly source into a linked Program.
AssemblyResult assembleProgram(const std::string &Source);

} // namespace dchm

#endif // DCHM_ASM_ASSEMBLER_H
