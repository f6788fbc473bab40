//===-- mutation/MutationPlan.h - Hot-state mutation plan -----*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The artifact of the paper's offline step (Figure 3): for each *mutable
/// class*, the state fields that determine its mutation state, the hot
/// states (joint value tuples) worth specializing for, and the mutable
/// methods to generate specialized compiled code for. The plan is fed to
/// the VM at startup; the mutation engine turns each hot state into a
/// special TIB + specialized compiled methods.
///
/// Plans are produced automatically by analysis/OfflinePipeline, and can be
/// handwritten for tests and examples.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_MUTATION_MUTATIONPLAN_H
#define DCHM_MUTATION_MUTATIONPLAN_H

#include "ir/Ids.h"
#include "runtime/Value.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dchm {

/// One hot state of a mutable class: a joint assignment of values to the
/// class's state fields. InstanceVals aligns with the owning plan's
/// InstanceStateFields, StaticVals with StaticStateFields.
struct HotState {
  std::vector<Value> InstanceVals;
  std::vector<Value> StaticVals;
  /// Fraction of profile samples in this state (diagnostic only).
  double Weight = 0.0;
};

/// Mutation plan for one mutable class.
struct MutableClassPlan {
  ClassId Cls = NoClassId;
  /// Instance (non-static) state fields, possibly declared by parents.
  std::vector<FieldId> InstanceStateFields;
  /// Static state fields.
  std::vector<FieldId> StaticStateFields;
  /// Hot states; each gets a special TIB (when instance fields exist) and
  /// one specialized compiled version of every mutable method.
  std::vector<HotState> HotStates;
  /// Mutable methods: hot methods *declared by this class* whose behavior
  /// depends on the state fields. Only declared methods are mutation
  /// candidates (paper Figure 6's class-B example).
  std::vector<MethodId> MutableMethods;

  bool dependsOnInstanceFields() const { return !InstanceStateFields.empty(); }
};

/// A full mutation plan for a program.
struct MutationPlan {
  std::vector<MutableClassPlan> Classes;

  bool empty() const { return Classes.empty(); }

  const MutableClassPlan *planFor(ClassId C) const {
    for (const MutableClassPlan &P : Classes)
      if (P.Cls == C)
        return &P;
    return nullptr;
  }

  /// Total number of (class, state) pairs — the number of dynamically
  /// mutated classes the hierarchy can contain.
  size_t numHotStates() const {
    size_t N = 0;
    for (const MutableClassPlan &P : Classes)
      N += P.HotStates.size();
    return N;
  }
};

} // namespace dchm

#endif // DCHM_MUTATION_MUTATIONPLAN_H
