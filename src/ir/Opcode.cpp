//===-- ir/Opcode.cpp - Opcode traits -------------------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "ir/Opcode.h"

namespace dchm {

std::optional<Opcode> opcodeFromMnemonic(std::string_view Mnemonic) {
  static constexpr std::string_view Mnemonics[] = {
#define DCHM_X(Name, Mn, ...) Mn,
      DCHM_OPCODES(DCHM_X)
#undef DCHM_X
  };
  for (unsigned I = 0; I < NumOpcodes; ++I)
    if (Mnemonic == Mnemonics[I])
      return static_cast<Opcode>(I);
  return std::nullopt;
}

} // namespace dchm
