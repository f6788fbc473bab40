//===-- ir/Function.cpp - IR printing --------------------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

#include <bit>
#include <cstdio>

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

std::string IRFunction::toString() const {
  std::string Out;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "func %s(%u args) -> %s, %zu regs\n",
                Name.c_str(), NumArgs, typeName(RetTy), RegTypes.size());
  Out += Buf;
  for (size_t I = 0; I < Insts.size(); ++I) {
    const Instruction &Inst = Insts[I];
    std::snprintf(Buf, sizeof(Buf), "  %4zu: %-12s", I, opcodeName(Inst.Op));
    Out += Buf;
    auto AppendReg = [&](const char *Prefix, Reg R) {
      if (R == NoReg)
        return;
      std::snprintf(Buf, sizeof(Buf), " %s r%u", Prefix, R);
      Out += Buf;
    };
    AppendReg("dst", Inst.Dst);
    AppendReg("a", Inst.A);
    AppendReg("b", Inst.B);
    AppendReg("c", Inst.C);
    if (Inst.Op == Opcode::ConstF) {
      std::snprintf(Buf, sizeof(Buf), " fimm %g", Inst.FImm);
      Out += Buf;
    } else if (Inst.Imm != 0 || Inst.Op == Opcode::ConstI ||
               isBranch(Inst.Op) || isCall(Inst.Op)) {
      std::snprintf(Buf, sizeof(Buf), " imm %lld",
                    static_cast<long long>(Inst.Imm));
      Out += Buf;
    }
    if (!Inst.Args.empty()) {
      Out += " args(";
      for (size_t J = 0; J < Inst.Args.size(); ++J) {
        std::snprintf(Buf, sizeof(Buf), "%sr%u", J ? "," : "", Inst.Args[J]);
        Out += Buf;
      }
      Out += ")";
    }
    Out += "\n";
  }
  return Out;
}

} // namespace dchm
