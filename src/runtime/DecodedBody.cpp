//===-- runtime/DecodedBody.cpp - Threaded dispatch form of a body --------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "runtime/DecodedBody.h"

#include "runtime/CostModel.h"

#include <limits>
#include <string>
#include <utility>

namespace dchm {

namespace {

// A group is at most three instructions; its cycle sum must fit the entry.
static_assert(3 * std::numeric_limits<decltype(OpcodeInfo::Cycles)>::max() <=
                  std::numeric_limits<decltype(Instruction::Cycles)>::max(),
              "a fused group's cycles must fit Instruction::Cycles");

#define DCHM_X(OP) Opcode::OP,
constexpr Opcode ConstArithOps[] = {DCHM_CONST_ARITH_OPS(DCHM_X)};
constexpr Opcode FusedBinops[] = {DCHM_FUSED_BINOPS(DCHM_X)};
constexpr Opcode BranchCmps[] = {DCHM_BRANCH_CMPS(DCHM_X)};
#undef DCHM_X

/// Position of Op in one of the DecodedBody.h opcode lists, or -1.
template <size_t N> int indexIn(const Opcode (&List)[N], Opcode Op) {
  for (size_t K = 0; K < N; ++K)
    if (List[K] == Op)
      return static_cast<int>(K);
  return -1;
}

uint8_t plus(HandlerId Base, int K) {
  return static_cast<uint8_t>(static_cast<int>(Base) + K);
}

/// The handler and group length for dispatch landing on F.Insts[I]. The
/// rules read only opcodes and register numbers, never run-time values, so
/// deciding them once per body is exact. Every member they group cannot
/// trap or return, and only the last may branch.
std::pair<uint8_t, uint8_t> classify(const IRFunction &F, size_t I) {
  const std::vector<Instruction> &Insts = F.Insts;
  const Instruction &In = Insts[I];
  const Instruction *Nx = I + 1 < Insts.size() ? &Insts[I + 1] : nullptr;
  const Instruction *Nx2 = I + 2 < Insts.size() ? &Insts[I + 2] : nullptr;
  auto Single = std::pair<uint8_t, uint8_t>{static_cast<uint8_t>(In.Op), 1};
  if (!Nx)
    return Single;
  // True when Use is an Op whose A operand is Def's result.
  auto Uses = [](const Instruction *Use, Opcode Op, const Instruction &Def) {
    return Use && Use->Op == Op && Use->A == Def.Dst;
  };

  if (In.Op == Opcode::ConstI) {
    // A constant feeding an integer binop (which need not read it).
    if (int K = indexIn(ConstArithOps, Nx->Op); K >= 0)
      return {plus(HandlerId::ConstI_Add, K), 2};
    return Single;
  }
  if (int K = indexIn(FusedBinops, In.Op); K >= 0) {
    // The builder's loop-variable idiom `move(X, binop(...))`, optionally
    // closing the loop with a Br.
    if (Uses(Nx, Opcode::Move, In)) {
      if (Nx2 && Nx2->Op == Opcode::Br)
        return {plus(HandlerId::Add_Move_Br, K), 3};
      return {plus(HandlerId::Add_Move, K), 2};
    }
    return Single;
  }
  if (int K = indexIn(BranchCmps, In.Op); K >= 0) {
    // Compare + conditional branch on its result: every counted loop.
    if (Uses(Nx, Opcode::Cbnz, In))
      return {plus(HandlerId::CmpEQ_Cbnz, K), 2};
    if (Uses(Nx, Opcode::Cbz, In))
      return {plus(HandlerId::CmpEQ_Cbz, K), 2};
    return Single;
  }
  return Single;
}

} // namespace

VMError decodeBody(IRFunction &F) {
  std::vector<Instruction> &Insts = F.Insts;
  if (Insts.empty())
    return VMError::error(F.Name + ": empty body");
  if (!isTerminator(Insts.back().Op))
    return VMError::error(F.Name + ": body does not end in br or ret");
  for (size_t I = 0; I < Insts.size(); ++I)
    if (isBranch(Insts[I].Op) &&
        (Insts[I].Imm < 0 ||
         static_cast<uint64_t>(Insts[I].Imm) >= Insts.size()))
      return VMError::error(F.Name + ": branch at " + std::to_string(I) +
                            " targets " + std::to_string(Insts[I].Imm) +
                            ", outside the body of " +
                            std::to_string(Insts.size()));

  for (size_t I = 0; I < Insts.size(); ++I) {
    auto [Handler, Count] = classify(F, I);
    uint64_t Cycles = 0;
    for (size_t J = I; J < I + Count; ++J)
      Cycles += opcodeCycles(Insts[J].Op);
    Insts[I].Handler = Handler;
    Insts[I].Count = Count;
    Insts[I].Cycles = static_cast<uint16_t>(Cycles);
  }
  return VMError::success();
}

} // namespace dchm
