//===-- asm/Printer.h - MiniVM IR to .mvm text -----------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inverse of assembleProgram: prints a Program, or one method with any
/// body (its bytecode, or an optimized or specialized version of it), as
/// `.mvm` text (docs/mvm-format.md). The text re-assembles to the same
/// classes, fields and methods with the same ids, and to the same
/// instructions with the same registers up to renaming: registers print as
/// `%<index>` (`%this` for an instance method's receiver); a register that
/// is read at or before its first write, or written again by anything but
/// a move, is declared with `var`.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_ASM_PRINTER_H
#define DCHM_ASM_PRINTER_H

#include "runtime/Program.h"

#include <string>

namespace dchm {

/// Prints every class and interface of P in id order, each with its fields
/// and methods in id order.
std::string printProgram(const Program &P);

/// Prints method M of P as the `method` or `ctor` declaration it has inside
/// its class, with Body as its body.
std::string printMethod(const Program &P, MethodId M, const IRFunction &Body);

} // namespace dchm

#endif // DCHM_ASM_PRINTER_H
