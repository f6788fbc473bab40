//===-- compiler/Olc.h - Object lifetime constant database ----*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Results of the object-lifetime-constant analysis (paper section 4,
/// Figure 8), in the form the specialization inliner consumes: for each
/// private exact-type reference field (e.g. DeliveryTransaction's
/// `deliveryScreen`), the fields of the referenced object that are provably
/// constant for the object's whole lifetime (e.g. DisplayScreen's
/// rows == 24, cols == 80), with their values. The analysis that fills it
/// in is declared in analysis/OlcAnalysis.h; the VM runs it at each plan
/// install (VirtualMachine::setMutationPlan).
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_COMPILER_OLC_H
#define DCHM_COMPILER_OLC_H

#include "ir/Ids.h"
#include "runtime/Value.h"

#include <vector>

namespace dchm {

/// One proven object lifetime constant: field TargetField of the object
/// referenced by the owning entry's RefField always holds V.
struct OlcConstant {
  FieldId TargetField = NoFieldId;
  Value V = zeroValue();
};

/// All object lifetime constants reachable through one private reference
/// field of exact type TargetClass.
struct OlcEntry {
  FieldId RefField = NoFieldId;
  ClassId TargetClass = NoClassId;
  /// The constructor every assignment of RefField uses.
  MethodId Ctor = NoMethodId;
  std::vector<OlcConstant> Constants;
};

/// Database of OLC results for a program.
struct OlcDatabase {
  std::vector<OlcEntry> Entries;

  const OlcEntry *forRefField(FieldId F) const {
    for (const OlcEntry &E : Entries)
      if (E.RefField == F)
        return &E;
    return nullptr;
  }
};

} // namespace dchm

#endif // DCHM_COMPILER_OLC_H
