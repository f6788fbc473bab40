//===-- analysis/StateFieldAnalysis.cpp - EQ 1 field scoring -----------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "analysis/StateFieldAnalysis.h"

#include "ir/CFG.h"

#include <algorithm>
#include <map>

namespace dchm {

namespace {

/// Per-field accumulators for EQ 1.
struct FieldScore {
  double BranchUses = 0.0;  ///< sum of Li * Hi
  double Assignments = 0.0; ///< sum of lj * hj
  /// Assignment-relaxation tracking: true while all assignments seen store
  /// one identical constant (paper: such fields keep their score).
  bool AllAssignSameConst = true;
  bool HaveConst = false;
  int64_t ConstBits = 0;
};

/// The primitive field loaded at Insts[I], or NoFieldId when Insts[I] is
/// not a GetField/GetStatic of a primitive field (states are primitive
/// values).
FieldId primitiveLoadAt(const Program &P, const IRFunction &F, size_t I) {
  const Instruction &Inst = F.Insts[I];
  if (Inst.Op != Opcode::GetField && Inst.Op != Opcode::GetStatic)
    return NoFieldId;
  FieldId Fld = static_cast<FieldId>(Inst.Imm);
  return P.field(Fld).Ty == Type::Ref ? NoFieldId : Fld;
}

/// Calls Use(J) for each Cbz/Cbnz at index J > LoadIdx that tests a
/// register derived from the value loaded at LoadIdx, in index order. The
/// derived registers are closed over one forward pass from the load, which
/// is enough for builder-produced code (compare chains are emitted after
/// the load).
template <typename UseFn>
void forEachFedBranch(const IRFunction &F, size_t LoadIdx,
                      std::vector<bool> &Tainted, UseFn Use) {
  Tainted.assign(F.RegTypes.size(), false);
  Tainted[F.Insts[LoadIdx].Dst] = true;
  for (size_t I = LoadIdx + 1; I < F.Insts.size(); ++I) {
    const Instruction &Inst = F.Insts[I];
    if (!Inst.hasDst())
      continue;
    bool UsesTainted = (Inst.A != NoReg && Tainted[Inst.A]) ||
                       (Inst.B != NoReg && Tainted[Inst.B]) ||
                       (Inst.C != NoReg && Tainted[Inst.C]);
    if (UsesTainted)
      Tainted[Inst.Dst] = true;
    else if (Tainted[Inst.Dst] && Inst.Op != Opcode::Move)
      Tainted[Inst.Dst] = false; // redefined from untainted sources
  }
  for (size_t J = LoadIdx + 1; J < F.Insts.size(); ++J) {
    const Instruction &Br = F.Insts[J];
    if ((Br.Op == Opcode::Cbnz || Br.Op == Opcode::Cbz) && Tainted[Br.A])
      Use(J);
  }
}

} // namespace

std::vector<FieldId> branchTestedFields(const Program &P) {
  std::vector<bool> Tested(P.numFields(), false);
  std::vector<bool> Tainted;
  for (size_t MIdx = 0; MIdx < P.numMethods(); ++MIdx) {
    const MethodInfo &M = P.method(static_cast<MethodId>(MIdx));
    if (!M.HasBody)
      continue;
    const IRFunction &F = M.Bytecode;
    for (size_t I = 0; I < F.Insts.size(); ++I) {
      FieldId Fld = primitiveLoadAt(P, F, I);
      if (Fld == NoFieldId || Tested[Fld])
        continue;
      forEachFedBranch(F, I, Tainted, [&](size_t) { Tested[Fld] = true; });
    }
  }
  std::vector<FieldId> Out;
  for (size_t Fld = 0; Fld < Tested.size(); ++Fld)
    if (Tested[Fld])
      Out.push_back(static_cast<FieldId>(Fld));
  return Out;
}

std::vector<ClassStateFields>
analyzeStateFields(const Program &P, const HotMethodProfile &Prof) {
  // Score accumulation is global per field; attribution to classes happens
  // afterwards (a field declared by a parent can be the state field of a
  // hot derived class, like grade on SalaryEmployee).
  std::map<FieldId, FieldScore> Scores;

  for (size_t MIdx = 0; MIdx < P.numMethods(); ++MIdx) {
    const MethodInfo &M = P.method(static_cast<MethodId>(MIdx));
    if (!M.HasBody)
      continue;
    double H = Prof.hotness(M.Id);
    const IRFunction &F = M.Bytecode;
    CFG G(F);
    std::vector<bool> Tainted;

    for (size_t I = 0; I < F.Insts.size(); ++I) {
      const Instruction &Inst = F.Insts[I];
      if (Inst.Op == Opcode::GetField || Inst.Op == Opcode::GetStatic) {
        // A use only matters in a hot function (assumption 2).
        if (H < HotMethodThreshold)
          continue;
        FieldId Fld = primitiveLoadAt(P, F, I);
        if (Fld == NoFieldId)
          continue;
        forEachFedBranch(F, I, Tainted, [&](size_t J) {
          double Li = 1.0 + G.loopDepthOfInst(static_cast<uint32_t>(J));
          Scores[Fld].BranchUses += Li * H;
        });
      } else if (Inst.Op == Opcode::PutField || Inst.Op == Opcode::PutStatic) {
        FieldId Fld = static_cast<FieldId>(Inst.Imm);
        if (P.field(Fld).Ty == Type::Ref)
          continue;
        FieldScore &S = Scores[Fld];
        double Lj = 1.0 + G.loopDepthOfInst(static_cast<uint32_t>(I));
        S.Assignments += Lj * H;
        Reg ValueReg = Inst.Op == Opcode::PutField ? Inst.B : Inst.A;
        if (std::optional<int64_t> Bits = uniqueConstDefBits(F, ValueReg)) {
          if (!S.HaveConst) {
            S.HaveConst = true;
            S.ConstBits = *Bits;
          } else if (S.ConstBits != *Bits) {
            S.AllAssignSameConst = false;
          }
        } else {
          S.AllAssignSameConst = false;
        }
      }
    }
  }

  // Attribute scored fields to hot classes: a class qualifies when it
  // declares a hot method; its candidate fields are the scored fields it
  // declares or inherits.
  std::vector<ClassStateFields> Out;
  for (size_t CIdx = 0; CIdx < P.numClasses(); ++CIdx) {
    const ClassInfo &C = P.cls(static_cast<ClassId>(CIdx));
    if (C.IsInterface)
      continue;
    bool HasHotMethod = false;
    for (MethodId MId : C.Methods)
      if (Prof.hotness(MId) >= HotMethodThreshold)
        HasHotMethod = true;
    if (!HasHotMethod)
      continue;

    ClassStateFields CSF;
    CSF.Cls = C.Id;
    for (auto &[Fld, S] : Scores) {
      const FieldInfo &FI = P.field(Fld);
      bool DeclaredOrInherited =
          std::find(C.Ancestors.begin(), C.Ancestors.end(), FI.Owner) !=
          C.Ancestors.end();
      if (!DeclaredOrInherited)
        continue;
      // EQ 1, with the relaxation: same-constant assignments in hot
      // functions do not count against the field.
      double Penalty =
          S.AllAssignSameConst ? 0.0 : AssignmentPenaltyR * S.Assignments;
      double V = S.BranchUses - Penalty;
      if (V >= FieldScoreThreshold)
        CSF.Candidates.push_back({Fld, V});
    }
    if (CSF.Candidates.empty())
      continue;
    std::sort(CSF.Candidates.begin(), CSF.Candidates.end(),
              [](const StateFieldCandidate &A, const StateFieldCandidate &B) {
                return A.Score > B.Score;
              });
    Out.push_back(std::move(CSF));
  }
  return Out;
}

} // namespace dchm
