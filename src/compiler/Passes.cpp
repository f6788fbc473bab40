//===-- compiler/Passes.cpp - Optimization passes ---------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "compiler/Passes.h"

#include "compiler/Eval.h"
#include "ir/CFG.h"
#include "support/Debug.h"

#include <algorithm>

namespace dchm {

namespace {

/// Constant lattice value for one register.
struct Lat {
  enum Kind : uint8_t { Top, Const, Bottom } K = Top;
  Value V = zeroValue();

  static Lat top() { return Lat{}; }
  static Lat constant(Value V) { return Lat{Const, V}; }
  static Lat bottom() { return Lat{Bottom, zeroValue()}; }

  bool isConst() const { return K == Const; }

  /// Lattice meet; returns true if *this changed.
  bool meet(const Lat &O) {
    if (O.K == Top)
      return false;
    if (K == Top) {
      *this = O;
      return true;
    }
    if (K == Bottom)
      return false;
    if (O.K == Bottom || O.V.I != V.I) {
      K = Bottom;
      return true;
    }
    return false;
  }
};

using State = std::vector<Lat>;

/// Applies one instruction to the running state. Returns the lattice value
/// of the destination (Bottom for unknown producers).
Lat transfer(const Instruction &I, const State &S) {
  if (!I.hasDst())
    return Lat::bottom();
  switch (I.Op) {
  case Opcode::ConstI:
    return Lat::constant(valueI(I.Imm));
  case Opcode::ConstF:
    return Lat::constant(valueF(I.FImm));
  case Opcode::ConstNull:
    return Lat::constant(valueR(nullptr));
  case Opcode::Move:
    return S[I.A];
  default:
    break;
  }
  if (isBinop(I.Op)) {
    const Lat &A = S[I.A], &B = S[I.B];
    if (A.isConst() && B.isConst() && canFoldBinop(I.Op, A.V, B.V))
      return Lat::constant(evalBinop(I.Op, A.V, B.V));
    if (A.K == Lat::Top || B.K == Lat::Top)
      return Lat::top();
    return Lat::bottom();
  }
  if (isUnop(I.Op)) {
    const Lat &A = S[I.A];
    if (A.isConst())
      return Lat::constant(evalUnop(I.Op, A.V));
    return A.K == Lat::Top ? Lat::top() : Lat::bottom();
  }
  return Lat::bottom();
}

/// True if the register's lattice constant can replace it with a Const
/// instruction of the register's type.
bool materializable(Type Ty) { return Ty == Type::I64 || Ty == Type::F64; }

/// Whether Inst may go once its result is dead: the table's purity, plus a
/// getfield off the receiver, which cannot trap.
bool removableWhenDead(const IRFunction &F, const Instruction &Inst) {
  return isRemovableWhenDead(Inst.Op) ||
         (Inst.Op == Opcode::GetField && F.HasReceiver && Inst.A == 0);
}

} // namespace

void eraseDeadInstructions(IRFunction &F, const std::vector<bool> &Dead) {
  DCHM_CHECK(Dead.size() == F.Insts.size(), "dead vector size mismatch");
  DCHM_CHECK(!Dead.back(), "cannot erase the final terminator");
  const size_t N = F.Insts.size();
  // NewIndexAtOrAfter[i]: new index of the first surviving instruction at or
  // after old index i (branch targets always resolve to a survivor because
  // the final terminator survives).
  std::vector<uint32_t> NewIndexAtOrAfter(N + 1, 0);
  uint32_t Live = 0;
  for (size_t I = 0; I < N; ++I)
    if (!Dead[I])
      ++Live;
  uint32_t Remaining = Live;
  NewIndexAtOrAfter[N] = Live; // out of range; never used by valid targets
  for (size_t I = N; I-- > 0;) {
    if (!Dead[I])
      --Remaining;
    NewIndexAtOrAfter[I] = Remaining;
  }
  std::vector<Instruction> Out;
  Out.reserve(Live);
  for (size_t I = 0; I < N; ++I) {
    if (Dead[I])
      continue;
    Instruction Inst = std::move(F.Insts[I]);
    if (isBranch(Inst.Op))
      Inst.Imm = NewIndexAtOrAfter[static_cast<size_t>(Inst.Imm)];
    Out.push_back(std::move(Inst));
  }
  F.Insts = std::move(Out);
}

bool runConstantPropagation(IRFunction &F) {
  CFG G(F);
  const auto &Blocks = G.blocks();
  const size_t NB = Blocks.size();
  const size_t NR = F.RegTypes.size();

  // Entry state: arguments unknown, all other registers zero (frames are
  // zero-initialized by the interpreter).
  State Entry(NR);
  for (size_t R = 0; R < NR; ++R)
    Entry[R] = R < F.NumArgs ? Lat::bottom() : Lat::constant(zeroValue());

  std::vector<State> In(NB, State(NR, Lat::top()));
  In[0] = Entry;
  std::vector<bool> InWork(NB, false);
  std::vector<uint32_t> Work{0};
  InWork[0] = true;

  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    InWork[B] = false;
    State S = In[B];
    for (uint32_t I = Blocks[B].Begin; I < Blocks[B].End; ++I) {
      const Instruction &Inst = F.Insts[I];
      if (Inst.hasDst())
        S[Inst.Dst] = transfer(Inst, S);
    }
    for (uint32_t Succ : Blocks[B].Succs) {
      bool Changed = false;
      for (size_t R = 0; R < NR; ++R)
        Changed |= In[Succ][R].meet(S[R]);
      if (Changed && !InWork[Succ]) {
        InWork[Succ] = true;
        Work.push_back(Succ);
      }
    }
  }

  // Rewrite using per-block running states.
  bool Changed = false;
  for (size_t B = 0; B < NB; ++B) {
    if (!G.isReachable(static_cast<uint32_t>(B)))
      continue;
    State S = In[B];
    for (uint32_t I = Blocks[B].Begin; I < Blocks[B].End; ++I) {
      Instruction &Inst = F.Insts[I];
      Lat DstVal = Inst.hasDst() ? transfer(Inst, S) : Lat::bottom();

      // Fold a computed constant into a Const instruction.
      if (Inst.hasDst() && DstVal.isConst() && Inst.Op != Opcode::ConstI &&
          Inst.Op != Opcode::ConstF && Inst.Op != Opcode::ConstNull &&
          (isBinop(Inst.Op) || isUnop(Inst.Op) || Inst.Op == Opcode::Move) &&
          materializable(F.RegTypes[Inst.Dst])) {
        Reg Dst = Inst.Dst;
        Instruction NewInst{};
        if (F.RegTypes[Dst] == Type::I64) {
          NewInst.Op = Opcode::ConstI;
          NewInst.Ty = Type::I64;
          NewInst.Imm = DstVal.V.I;
        } else {
          NewInst.Op = Opcode::ConstF;
          NewInst.Ty = Type::F64;
          NewInst.FImm = DstVal.V.F;
        }
        NewInst.Dst = Dst;
        Inst = NewInst;
        Changed = true;
      }

      // Fold conditional branches on constant conditions.
      if ((Inst.Op == Opcode::Cbnz || Inst.Op == Opcode::Cbz) &&
          S[Inst.A].isConst()) {
        bool Taken = Inst.Op == Opcode::Cbnz ? S[Inst.A].V.I != 0
                                             : S[Inst.A].V.I == 0;
        if (Taken) {
          Inst.Op = Opcode::Br;
          Inst.A = NoReg;
        } else {
          // Fall through: rewrite into a branch to the next instruction,
          // which branch folding then deletes.
          Inst.Op = Opcode::Br;
          Inst.A = NoReg;
          Inst.Imm = static_cast<int64_t>(I) + 1;
          DCHM_CHECK(static_cast<size_t>(Inst.Imm) < F.Insts.size(),
                     "conditional fall-through at function end");
        }
        Changed = true;
      }

      if (Inst.hasDst())
        S[Inst.Dst] = DstVal;
    }
  }
  return Changed;
}

bool runCopyPropagation(IRFunction &F) {
  CFG G(F);
  bool Changed = false;
  for (const BasicBlock &B : G.blocks()) {
    // CopyOf[r] = s when r currently holds a copy of s within this block.
    std::vector<Reg> CopyOf(F.RegTypes.size(), NoReg);
    auto Resolve = [&](Reg R) {
      while (R != NoReg && CopyOf[R] != NoReg)
        R = CopyOf[R];
      return R;
    };
    auto Kill = [&](Reg Dst) {
      CopyOf[Dst] = NoReg;
      for (Reg &Src : CopyOf)
        if (Src == Dst)
          Src = NoReg;
    };
    for (uint32_t I = B.Begin; I < B.End; ++I) {
      Instruction &Inst = F.Insts[I];
      auto Fwd = [&](Reg &R) {
        Reg NewR = Resolve(R);
        if (NewR != R) {
          R = NewR;
          Changed = true;
        }
      };
      if (Inst.A != NoReg)
        Fwd(Inst.A);
      if (Inst.B != NoReg)
        Fwd(Inst.B);
      if (Inst.C != NoReg)
        Fwd(Inst.C);
      for (Reg &R : Inst.Args)
        Fwd(R);
      if (Inst.hasDst()) {
        Kill(Inst.Dst);
        if (Inst.Op == Opcode::Move && Inst.A != Inst.Dst)
          CopyOf[Inst.Dst] = Inst.A;
      }
    }
  }
  return Changed;
}

bool runStrengthReduction(IRFunction &F) {
  CFG G(F);
  bool Changed = false;
  for (const BasicBlock &B : G.blocks()) {
    // Block-local constant tracking (flow-insensitive across blocks; the
    // global pass already handled cross-block constants).
    std::vector<Lat> S(F.RegTypes.size(), Lat::bottom());
    for (uint32_t I = B.Begin; I < B.End; ++I) {
      Instruction &Inst = F.Insts[I];
      auto ConstOf = [&](Reg R) -> const Lat & { return S[R]; };
      auto ToMove = [&](Reg Src) {
        Inst.Op = Opcode::Move;
        Inst.A = Src;
        Inst.B = NoReg;
        Changed = true;
      };
      auto ToConstI = [&](int64_t V) {
        Reg Dst = Inst.Dst;
        Inst = Instruction{};
        Inst.Op = Opcode::ConstI;
        Inst.Ty = Type::I64;
        Inst.Dst = Dst;
        Inst.Imm = V;
        Changed = true;
      };
      switch (Inst.Op) {
      case Opcode::Add:
      case Opcode::Or:
      case Opcode::Xor: {
        if (ConstOf(Inst.B).isConst() && ConstOf(Inst.B).V.I == 0)
          ToMove(Inst.A);
        else if (ConstOf(Inst.A).isConst() && ConstOf(Inst.A).V.I == 0)
          ToMove(Inst.B);
        break;
      }
      case Opcode::Sub:
      case Opcode::Shl:
      case Opcode::Shr: {
        if (ConstOf(Inst.B).isConst() && ConstOf(Inst.B).V.I == 0)
          ToMove(Inst.A);
        break;
      }
      case Opcode::Mul: {
        Reg Other = NoReg;
        int64_t C = 0;
        if (ConstOf(Inst.B).isConst()) {
          Other = Inst.A;
          C = ConstOf(Inst.B).V.I;
        } else if (ConstOf(Inst.A).isConst()) {
          Other = Inst.B;
          C = ConstOf(Inst.A).V.I;
        }
        if (Other == NoReg)
          break;
        if (C == 0) {
          ToConstI(0);
        } else if (C == 1) {
          ToMove(Other);
        } else if (C > 1 && (C & (C - 1)) == 0) {
          // x * 2^k -> x << k (wrapping multiply == wrapping shift).
          int64_t K = 0;
          while ((int64_t(1) << K) != C)
            ++K;
          // Need the shift count in a register; reuse the constant operand's
          // register only if it held exactly C... simpler: emit via Imm is
          // impossible (binops take registers), so only rewrite when a
          // register already holding K is not available; skip the rewrite
          // and let the cost stand. Mul-by-power-of-two strength reduction
          // is applied when the constant operand register can be repurposed:
          // it cannot (other uses may exist), so keep the multiply when K
          // cannot be encoded. Rewrite only C == 2 as x + x.
          if (C == 2) {
            Inst.Op = Opcode::Add;
            Inst.A = Other;
            Inst.B = Other;
            Changed = true;
          }
        }
        break;
      }
      case Opcode::Div: {
        if (ConstOf(Inst.B).isConst() && ConstOf(Inst.B).V.I == 1)
          ToMove(Inst.A);
        break;
      }
      case Opcode::Rem: {
        if (ConstOf(Inst.B).isConst() && (ConstOf(Inst.B).V.I == 1 ||
                                          ConstOf(Inst.B).V.I == -1))
          ToConstI(0);
        break;
      }
      case Opcode::And: {
        if ((ConstOf(Inst.A).isConst() && ConstOf(Inst.A).V.I == 0) ||
            (ConstOf(Inst.B).isConst() && ConstOf(Inst.B).V.I == 0))
          ToConstI(0);
        break;
      }
      default:
        break;
      }
      if (Inst.hasDst())
        S[Inst.Dst] = transfer(Inst, S);
    }
  }
  return Changed;
}

bool runBranchFolding(IRFunction &F) {
  bool Changed = false;
  const size_t N = F.Insts.size();

  // Thread Br -> Br chains.
  for (size_t I = 0; I < N; ++I) {
    Instruction &Inst = F.Insts[I];
    if (!isBranch(Inst.Op))
      continue;
    size_t Target = static_cast<size_t>(Inst.Imm);
    size_t Hops = 0;
    while (F.Insts[Target].Op == Opcode::Br &&
           static_cast<size_t>(F.Insts[Target].Imm) != Target && Hops < N) {
      Target = static_cast<size_t>(F.Insts[Target].Imm);
      ++Hops;
    }
    if (Target != static_cast<size_t>(Inst.Imm)) {
      Inst.Imm = static_cast<int64_t>(Target);
      Changed = true;
    }
  }

  // Delete branches (conditional or not) to the next instruction.
  std::vector<bool> Dead(N, false);
  for (size_t I = 0; I + 1 < N; ++I) {
    const Instruction &Inst = F.Insts[I];
    if (isBranch(Inst.Op) && static_cast<size_t>(Inst.Imm) == I + 1) {
      Dead[I] = true;
      Changed = true;
    }
  }
  if (Changed)
    eraseDeadInstructions(F, Dead);
  return Changed;
}

bool runDeadCodeElimination(IRFunction &F) {
  const size_t N = F.Insts.size();
  CFG G(F);

  std::vector<bool> Keep(N, false);
  std::vector<bool> LiveReg(F.RegTypes.size(), false);

  // Seed: reachable instructions with side effects (or that direct control
  // flow). The final terminator is always kept.
  for (size_t I = 0; I < N; ++I) {
    if (!G.isReachable(G.blockOfInst(static_cast<uint32_t>(I))))
      continue;
    const Instruction &Inst = F.Insts[I];
    if (!removableWhenDead(F, Inst) || isBranch(Inst.Op))
      Keep[I] = true;
  }
  Keep[N - 1] = true;

  // Fixpoint: operands of kept instructions are live; instructions defining
  // live registers are kept.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = N; I-- > 0;) {
      const Instruction &Inst = F.Insts[I];
      if (!Keep[I] && Inst.hasDst() && LiveReg[Inst.Dst] &&
          G.isReachable(G.blockOfInst(static_cast<uint32_t>(I)))) {
        Keep[I] = true;
        Changed = true;
      }
      if (!Keep[I])
        continue;
      auto MarkLive = [&](Reg R) {
        if (R != NoReg && !LiveReg[R]) {
          LiveReg[R] = true;
          Changed = true;
        }
      };
      MarkLive(Inst.A);
      MarkLive(Inst.B);
      MarkLive(Inst.C);
      for (Reg R : Inst.Args)
        MarkLive(R);
    }
  }

  std::vector<bool> Dead(N, false);
  bool Any = false;
  for (size_t I = 0; I + 1 < N; ++I) {
    if (!Keep[I]) {
      Dead[I] = true;
      Any = true;
    }
  }
  if (Any)
    eraseDeadInstructions(F, Dead);
  return Any;
}

unsigned runOptPipeline(IRFunction &F) {
  unsigned Rounds = 0;
  for (unsigned Iter = 0; Iter < 6; ++Iter) {
    bool Changed = false;
    Changed |= runConstantPropagation(F);
    Changed |= runCopyPropagation(F);
    Changed |= runStrengthReduction(F);
    Changed |= runBranchFolding(F);
    Changed |= runDeadCodeElimination(F);
    if (!Changed)
      break;
    ++Rounds;
  }
  return Rounds;
}

} // namespace dchm
