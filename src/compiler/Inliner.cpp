//===-- compiler/Inliner.cpp - Method inlining -------------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "compiler/Inliner.h"

#include "compiler/Specializer.h"
#include "ir/CFG.h"
#include "support/Debug.h"

#include <algorithm>

namespace dchm {

namespace {

/// Number of call arguments whose value is a compile-time constant at the
/// site (unique Const definition) — the "N" of the trade-off heuristic.
unsigned countConstantArgs(const IRFunction &F, const Instruction &Call) {
  unsigned N = 0;
  for (Reg R : Call.Args) {
    std::optional<size_t> Def = uniqueDef(F, R);
    if (!Def)
      continue;
    Opcode Op = F.Insts[*Def].Op;
    if (Op == Opcode::ConstI || Op == Opcode::ConstF ||
        Op == Opcode::ConstNull)
      ++N;
  }
  return N;
}

/// Callee registers that might be read before written on some path; these
/// must be explicitly zero-initialized at the splice point because a fresh
/// frame would have zeroed them but a loop around the inlined region would
/// not. A register is provably safe when its single defining instruction
/// dominates every use.
std::vector<bool> regsNeedingInit(const IRFunction &Callee) {
  std::vector<bool> NeedsInit(Callee.RegTypes.size(), false);
  CFG G(Callee);
  for (Reg R = Callee.NumArgs; R < Callee.RegTypes.size(); ++R) {
    std::optional<size_t> DefIdx = uniqueDef(Callee, R);
    if (!DefIdx) {
      // Zero or multiple defs: conservatively initialize (zero defs means
      // any use reads the implicit zero; multiple defs are hard to prove).
      for (const Instruction &I : Callee.Insts) {
        bool Uses = I.A == R || I.B == R || I.C == R ||
                    std::find(I.Args.begin(), I.Args.end(), R) != I.Args.end();
        if (Uses) {
          NeedsInit[R] = true;
          break;
        }
      }
      continue;
    }
    uint32_t DefBlock = G.blockOfInst(static_cast<uint32_t>(*DefIdx));
    for (size_t I = 0; I < Callee.Insts.size(); ++I) {
      const Instruction &Inst = Callee.Insts[I];
      bool Uses = Inst.A == R || Inst.B == R || Inst.C == R ||
                  std::find(Inst.Args.begin(), Inst.Args.end(), R) !=
                      Inst.Args.end();
      if (!Uses)
        continue;
      uint32_t UseBlock = G.blockOfInst(static_cast<uint32_t>(I));
      bool Dominated = DefBlock == UseBlock ? *DefIdx < I
                                            : G.dominates(DefBlock, UseBlock);
      if (!Dominated) {
        NeedsInit[R] = true;
        break;
      }
    }
  }
  return NeedsInit;
}

} // namespace

Inliner::Inliner(Program &P, const InlinerConfig &Cfg, const OlcDatabase *Olc,
                 const MutationPlan *Plan)
    : P(P), Cfg(Cfg), Olc(Olc), Plan(Plan) {
  ImplCountBySlotRoot.assign(P.numMethods(), 0);
  for (size_t M = 0; M < P.numMethods(); ++M) {
    const MethodInfo &MI = P.method(static_cast<MethodId>(M));
    if (MI.isVirtualDispatch() && MI.SlotRoot != NoMethodId && MI.HasBody)
      ImplCountBySlotRoot[MI.SlotRoot]++;
  }
}

const MethodInfo *Inliner::resolveExactTarget(const IRFunction &F,
                                              const Instruction &Call,
                                              const MethodInfo &Root,
                                              const OlcEntry **OlcOut) const {
  *OlcOut = nullptr;
  const MethodInfo &Named = P.method(static_cast<MethodId>(Call.Imm));
  switch (Call.Op) {
  case Opcode::CallStatic:
  case Opcode::CallSpecial:
    return &Named;
  case Opcode::CallVirtual:
  case Opcode::CallInterface: {
    // Specialization inlining: receiver loaded from a private exact-type
    // reference field of the root's class with OLC results devirtualizes
    // the call through the exact type.
    if (Cfg.EnableSpecializationInlining && Olc && !Call.Args.empty() &&
        !Root.Flags.IsStatic) {
      Reg Recv = Call.Args[0];
      if (std::optional<size_t> Def = uniqueDef(F, Recv)) {
        const Instruction &DefInst = F.Insts[*Def];
        if (DefInst.Op == Opcode::GetField && DefInst.A == 0) {
          const OlcEntry *E =
              Olc->forRefField(static_cast<FieldId>(DefInst.Imm));
          if (E && P.field(E->RefField).Owner == Root.Owner) {
            const ClassInfo &Exact = P.cls(E->TargetClass);
            uint32_t Slot;
            if (Call.Op == Opcode::CallVirtual) {
              Slot = Call.Aux;
            } else {
              // Interface call: find the implementation slot via signature.
              const MethodInfo *Impl = nullptr;
              for (ClassId A : Exact.Ancestors) {
                for (MethodId MId : P.cls(A).Methods) {
                  const MethodInfo &M = P.method(MId);
                  if (M.isVirtualDispatch() && M.Name == Named.Name &&
                      M.ParamTys == Named.ParamTys && M.RetTy == Named.RetTy) {
                    Impl = &M;
                    break;
                  }
                }
                if (Impl)
                  break;
              }
              if (!Impl)
                return nullptr;
              Slot = Impl->VSlot;
            }
            if (Slot < Exact.VTable.size()) {
              *OlcOut = E;
              return &P.method(Exact.VTable[Slot]);
            }
          }
        }
      }
    }
    if (Call.Op == Opcode::CallInterface)
      return nullptr;
    // Effectively-final virtual call: sole implementation of its slot root.
    if (Named.SlotRoot != NoMethodId &&
        ImplCountBySlotRoot[Named.SlotRoot] == 1 && Named.HasBody)
      return &Named;
    return nullptr;
  }
  default:
    DCHM_UNREACHABLE("not a call");
  }
}

bool Inliner::shouldInline(const IRFunction &F, const Instruction &Call,
                           const MethodInfo &Callee, const OlcEntry *OlcE,
                           unsigned Budget, InlineStats &Stats) const {
  if (!Callee.HasBody || Callee.Flags.IsAbstract)
    return false;
  size_t Size = Callee.Bytecode.Insts.size();
  // OLC substitutions make the callee cheaper after folding; credit them
  // against the size bound (paper: OLCs "lower the inlining cost of a
  // method when the inlining decision is being made").
  size_t Credit = OlcE ? OlcE->Constants.size() * OlcSizeCredit : 0;
  size_t Effective = Size > Credit ? Size - Credit : 0;
  if (Effective > MaxCalleeInsts)
    return false;
  if (Size > Budget)
    return false;

  // Inline-vs-specialize trade-off for mutable methods. OLC-substituting
  // inlines skip the trade-off: they need no guards and keep the constants.
  if (!OlcE && Plan && Callee.IsMutable) {
    const MutableClassPlan *CP = Plan->planFor(Callee.Owner);
    if (CP) {
      unsigned N = countConstantArgs(F, Call);
      unsigned M = countSpecializableReads(Callee.Bytecode, *CP);
      if (static_cast<int>(N) <= static_cast<int>(M) + Cfg.TradeoffK) {
        Stats.TradeoffRejections++;
        return false;
      }
    }
  }
  return true;
}

unsigned Inliner::spliceCall(IRFunction &F, size_t CallIdx,
                             const MethodInfo &Callee, const OlcEntry *OlcE) {
  const Instruction Call = F.Insts[CallIdx]; // copy; we rebuild F.Insts
  const IRFunction &CB = Callee.Bytecode;
  DCHM_CHECK(Call.Args.size() == CB.NumArgs, "inline arg count mismatch");

  // Map callee registers: arguments to the caller's argument registers,
  // locals to freshly allocated caller registers.
  std::vector<Reg> RegMap(CB.RegTypes.size());
  for (Reg R = 0; R < CB.NumArgs; ++R)
    RegMap[R] = Call.Args[R];
  for (size_t R = CB.NumArgs; R < CB.RegTypes.size(); ++R) {
    DCHM_CHECK(F.RegTypes.size() < NoReg, "register overflow while inlining");
    F.RegTypes.push_back(CB.RegTypes[R]);
    RegMap[R] = static_cast<Reg>(F.RegTypes.size() - 1);
  }

  std::vector<bool> NeedsInit = regsNeedingInit(CB);

  // Build the replacement sequence: local inits, then the remapped body.
  std::vector<Instruction> Splice;
  Splice.reserve(CB.Insts.size() + 6);
  for (size_t R = CB.NumArgs; R < CB.RegTypes.size(); ++R) {
    if (!NeedsInit[R])
      continue;
    Instruction Init{};
    Init.Dst = RegMap[R];
    switch (CB.RegTypes[R]) {
    case Type::I64:
      Init.Op = Opcode::ConstI;
      Init.Ty = Type::I64;
      break;
    case Type::F64:
      Init.Op = Opcode::ConstF;
      Init.Ty = Type::F64;
      break;
    default:
      Init.Op = Opcode::ConstNull;
      Init.Ty = Type::Ref;
      break;
    }
    Splice.push_back(Init);
  }

  // Body target mapping filled after we know each body instruction's
  // position (returns expand to up to two instructions).
  std::vector<uint32_t> BodyPos(CB.Insts.size());
  for (size_t I = 0; I < CB.Insts.size(); ++I) {
    BodyPos[I] = static_cast<uint32_t>(Splice.size());
    Instruction Inst = CB.Insts[I];
    auto Remap = [&](Reg &R) {
      if (R != NoReg)
        R = RegMap[R];
    };
    if (Inst.Op == Opcode::Ret) {
      // return V  =>  Dst = V; goto end
      if (Call.Dst != NoReg) {
        Instruction Mv{};
        Mv.Op = Opcode::Move;
        Mv.Ty = F.RegTypes[Call.Dst];
        Mv.Dst = Call.Dst;
        Mv.A = RegMap[Inst.A];
        Splice.push_back(Mv);
      }
      Instruction Jmp{};
      Jmp.Op = Opcode::Br;
      Jmp.Imm = -1; // patched below to the post-call position
      Splice.push_back(Jmp);
      continue;
    }
    Remap(Inst.Dst);
    Remap(Inst.A);
    Remap(Inst.B);
    Remap(Inst.C);
    for (Reg &R : Inst.Args)
      Remap(R);

    // OLC substitution: loads of proven-constant fields off the inlined
    // receiver fold to constants (guard-free; paper section 5).
    if (OlcE && Inst.Op == Opcode::GetField && Inst.A == RegMap[0]) {
      for (const OlcConstant &OC : OlcE->Constants) {
        if (OC.TargetField != static_cast<FieldId>(Inst.Imm))
          continue;
        Reg Dst = Inst.Dst;
        Type Ty = Inst.Ty;
        Inst = Instruction{};
        Inst.Dst = Dst;
        Inst.Ty = Ty;
        if (Ty == Type::F64) {
          Inst.Op = Opcode::ConstF;
          Inst.FImm = OC.V.F;
        } else {
          Inst.Op = Opcode::ConstI;
          Inst.Imm = OC.V.I;
        }
        break;
      }
    }
    Splice.push_back(Inst);
  }

  // Rebuild the caller around the splice.
  const size_t OldN = F.Insts.size();
  const size_t SpliceLen = Splice.size();
  std::vector<Instruction> Out;
  Out.reserve(OldN - 1 + SpliceLen);
  // Old caller index -> new index.
  std::vector<uint32_t> CallerPos(OldN + 1);
  for (size_t I = 0; I < CallIdx; ++I)
    CallerPos[I] = static_cast<uint32_t>(I);
  CallerPos[CallIdx] = static_cast<uint32_t>(CallIdx); // splice start
  for (size_t I = CallIdx + 1; I <= OldN; ++I)
    CallerPos[I] = static_cast<uint32_t>(I - 1 + SpliceLen);

  for (size_t I = 0; I < CallIdx; ++I)
    Out.push_back(std::move(F.Insts[I]));
  const uint32_t SpliceBase = static_cast<uint32_t>(CallIdx);
  const uint32_t AfterCall = CallerPos[CallIdx + 1];
  for (size_t I = 0; I < SpliceLen; ++I) {
    Instruction Inst = std::move(Splice[I]);
    if (isBranch(Inst.Op)) {
      if (Inst.Imm < 0) // return jump
        Inst.Imm = AfterCall;
      else // body-internal target (body indices start after the inits)
        Inst.Imm = SpliceBase + BodyPos[static_cast<size_t>(Inst.Imm)];
    }
    Out.push_back(std::move(Inst));
  }
  for (size_t I = CallIdx + 1; I < OldN; ++I)
    Out.push_back(std::move(F.Insts[I]));

  // Retarget the caller's own branches across the splice.
  for (size_t I = 0; I < Out.size(); ++I) {
    // Skip the spliced region: its targets are already final.
    if (I >= SpliceBase && I < SpliceBase + SpliceLen)
      continue;
    Instruction &Inst = Out[I];
    if (isBranch(Inst.Op))
      Inst.Imm = CallerPos[static_cast<size_t>(Inst.Imm)];
  }

  // A trailing "goto end" jump at the very end of the splice would target
  // one past the function end when the call was the last instruction; the
  // builder guarantees a terminator after the call, so AfterCall < size.
  DCHM_CHECK(static_cast<size_t>(AfterCall) < Out.size() ||
                 Out.back().Op == Opcode::Ret,
             "inline splice at function end");

  F.Insts = std::move(Out);
  return static_cast<unsigned>(SpliceLen - 1);
}

InlineStats Inliner::run(IRFunction &F, const MethodInfo &Root) {
  InlineStats Stats;
  unsigned Budget = MaxFunctionGrowth;
  // Depth rounds: round D inlines calls exposed by round D-1's splices.
  for (unsigned Depth = 0; Depth < MaxDepth; ++Depth) {
    bool AnyThisRound = false;
    for (size_t I = 0; I < F.Insts.size(); ++I) {
      if (!isCall(F.Insts[I].Op))
        continue;
      const OlcEntry *OlcE = nullptr;
      const MethodInfo *Target = resolveExactTarget(F, F.Insts[I], Root, &OlcE);
      if (!Target || Target->Id == Root.Id) // no self-inlining
        continue;
      if (Target->Flags.IsCtor)
        continue; // constructors stay out-of-line: the mutation engine's
                  // constructor-exit hook fires on their return
      if (!shouldInline(F, F.Insts[I], *Target, OlcE, Budget, Stats))
        continue;
      unsigned Added = spliceCall(F, I, *Target, OlcE);
      Budget = Added > Budget ? 0 : Budget - Added;
      Stats.SitesInlined++;
      Stats.InstsAdded += Added;
      if (OlcE)
        Stats.SpecializationInlines++;
      AnyThisRound = true;
    }
    if (!AnyThisRound)
      break;
  }
  return Stats;
}

} // namespace dchm
