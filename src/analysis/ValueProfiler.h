//===-- analysis/ValueProfiler.h - Hot-state mining -----------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second offline profiling step of Figure 3: "the Jikes RVM is
/// augmented to generate the possible values for each field and the
/// distribution of the values of a field over time". The ValueProfiler
/// records, for a set of observed fields, a histogram of state events: per
/// exact class, event (constructor exit or heap census, store to an
/// instance field, store to a static field) and the values of the class's
/// observed fields at that moment. mine() projects the histogram onto each
/// class's EQ 1 candidates, which may be chosen after the run, and keeps
/// the joint value tuples whose sample share clears a threshold: the hot
/// states.
///
/// The offline pipeline observes a superset of every possible candidate
/// (branchTestedFields, marked IsObserved, which charges nothing) during
/// its one hot-method run; the online controller observes exactly its
/// candidates, marked as state fields. Either way the projection counts
/// what a run observing exactly the candidates would sample: constructor
/// exits and census entries always, an instance store when its field is
/// one of any class's profiled fields, and a static store only for a class
/// whose profiled fields are all static and include the stored one.
/// Stores a constructor makes to its own object are not events.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_ANALYSIS_VALUEPROFILER_H
#define DCHM_ANALYSIS_VALUEPROFILER_H

#include "analysis/StateFieldAnalysis.h"
#include "core/VM.h"
#include "mutation/MutationPlan.h"

#include <map>
#include <vector>

namespace dchm {

/// Records state events of observed fields during a profiling run.
class ValueProfiler : public StateObserver {
public:
  /// At most this many candidate fields (highest score first) are
  /// profiled per class.
  static constexpr size_t MaxFieldsPerClass = 3;

  /// The fields mine() profiles: each class's top MaxFieldsPerClass
  /// candidates, in id order without duplicates.
  static std::vector<FieldId>
  profiledFields(const std::vector<ClassStateFields> &Candidates);

  /// Records the events of Observed. The interpreter reports a field's
  /// stores only when the field is marked (IsObserved or IsStateField);
  /// marking is the caller's, before driving the VM.
  ValueProfiler(const Program &P, const std::vector<FieldId> &Observed);

  // --- StateObserver --------------------------------------------------------
  void observeInstanceStore(Object *O, FieldInfo &F) override;
  void observeStaticStore(FieldInfo &F) override;
  void observeConstructorExit(Object *O, MethodInfo &Ctor) override;

  /// Heap census: samples every allocated instance of a class with
  /// observed fields, live or garbage not yet collected
  /// (Heap::forEachObject does not mark). The online pipeline uses this to
  /// see objects whose state was set before the profiling window opened
  /// (store sampling alone misses them).
  void censusHeap(const Heap &H);

  /// One mined hot state: the joint field values and their sample share.
  struct MinedState {
    std::vector<Value> InstanceVals;
    std::vector<Value> StaticVals;
    double Weight = 0.0;
  };

  /// Mined result for one class.
  struct ClassStates {
    ClassId Cls = NoClassId;
    std::vector<FieldId> InstanceFields;
    std::vector<FieldId> StaticFields;
    std::vector<MinedState> Hot;
    uint64_t Samples = 0;
  };

  /// Returns, per candidate class, the value tuples of its top
  /// MaxFieldsPerClass candidates covering at least MinFraction of the
  /// class's samples (at most MaxStates, heaviest first). Every profiled
  /// field must have been observed.
  std::vector<ClassStates>
  mine(const std::vector<ClassStateFields> &Candidates, double MinFraction,
       size_t MaxStates) const;

private:
  /// Key code of a constructor-exit or census event; a store's key code is
  /// the stored field's id.
  static constexpr int64_t Snapshot = -1;

  /// A class with observed fields (declared or inherited): its histogram.
  struct ClassLog {
    std::vector<FieldId> InstanceFields; ///< id order
    std::vector<FieldId> StaticFields;   ///< id order
    /// Key: event code, then the instance then the static field values.
    std::map<std::vector<int64_t>, uint64_t> Events;
  };

  void record(Object *O, int64_t Code);

  const Program &P;
  std::vector<int> LogOf; ///< by ClassId: index into Logs, or -1
  std::vector<ClassLog> Logs;
  /// Static stores, keyed by the stored field's id, then the values of
  /// every observed static field.
  std::vector<FieldId> StaticFields;
  std::map<std::vector<int64_t>, uint64_t> StaticStores;
  std::vector<int64_t> KeyBuf; ///< scratch, reused by every event
};

} // namespace dchm

#endif // DCHM_ANALYSIS_VALUEPROFILER_H
