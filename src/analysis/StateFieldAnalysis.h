//===-- analysis/StateFieldAnalysis.h - EQ 1 field scoring ----*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static analysis that derives candidate *state fields* for hot classes
/// (paper section 3.1). A field's importance is scored by equation 1:
///
///     V = sum_i (Li * Hi)  -  R * sum_j (lj * hj)
///
/// where the first sum ranges over the field's uses in branch conditions
/// (Li = loop nesting level of the branch, Hi = hotness of the enclosing
/// function) and the second over its assignments (lj, hj likewise; R is a
/// fixed weight). Assignments that always store the same constant in a
/// hot function are exempt from the penalty (the paper's relaxation).
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_ANALYSIS_STATEFIELDANALYSIS_H
#define DCHM_ANALYSIS_STATEFIELDANALYSIS_H

#include "analysis/HotMethodProfile.h"
#include "runtime/Program.h"

#include <vector>

namespace dchm {

/// EQ 1's assignment penalty weight R.
constexpr double AssignmentPenaltyR = 2.0;
/// Hotness from which a method counts as hot.
constexpr double HotMethodThreshold = 0.01;
/// Minimum V for a field to become a candidate.
constexpr double FieldScoreThreshold = 0.005;

/// A scored candidate state field.
struct StateFieldCandidate {
  FieldId Field = NoFieldId;
  double Score = 0.0;
};

/// Candidate state fields for one hot class.
struct ClassStateFields {
  ClassId Cls = NoClassId;
  std::vector<StateFieldCandidate> Candidates;
};

/// Runs EQ 1 over every class that declares at least one hot method and
/// returns, per such class, the primitive fields (declared by the class or
/// its parents, instance or static) whose score clears the threshold,
/// highest score first.
std::vector<ClassStateFields>
analyzeStateFields(const Program &P, const HotMethodProfile &Prof);

/// EQ 1's branch-use scan with hotness ignored: every primitive field with
/// a load that feeds a conditional branch in any method, in id order. A
/// superset of the fields any profile can make candidates, so a run that
/// observes these fields has seen the events of whatever EQ 1 picks.
std::vector<FieldId> branchTestedFields(const Program &P);

} // namespace dchm

#endif // DCHM_ANALYSIS_STATEFIELDANALYSIS_H
