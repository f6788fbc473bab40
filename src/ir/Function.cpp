//===-- ir/Function.cpp - IR definition queries -----------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

#include <bit>

namespace dchm {

std::optional<size_t> uniqueDef(const IRFunction &F, Reg R) {
  std::optional<size_t> Def;
  for (size_t I = 0; I < F.Insts.size(); ++I)
    if (F.Insts[I].hasDst() && F.Insts[I].Dst == R) {
      if (Def)
        return std::nullopt;
      Def = I;
    }
  return Def;
}

std::optional<int64_t> uniqueConstDefBits(const IRFunction &F, Reg R) {
  std::optional<size_t> Def = uniqueDef(F, R);
  if (!Def)
    return std::nullopt;
  const Instruction &D = F.Insts[*Def];
  if (D.Op == Opcode::ConstI)
    return D.Imm;
  if (D.Op == Opcode::ConstF)
    return std::bit_cast<int64_t>(D.FImm);
  return std::nullopt;
}

} // namespace dchm
