//===-- ir/Opcode.cpp - Opcode traits -------------------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "ir/Opcode.h"

namespace dchm {

std::optional<Opcode> opcodeFromMnemonic(std::string_view Mnemonic) {
  for (unsigned I = 0; I < NumOpcodes; ++I)
    if (Mnemonic == OpcodeInfos[I].Mnemonic)
      return static_cast<Opcode>(I);
  return std::nullopt;
}

} // namespace dchm
