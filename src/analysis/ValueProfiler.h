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
/// marks the candidate state fields on its Program instance so the
/// interpreter reports their stores, samples the *joint* value tuple of a
/// class's candidate fields at every store and constructor exit, and mines
/// the tuples whose sample share clears a threshold — the hot states.
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

/// Samples state-field value tuples during a profiling run.
class ValueProfiler : public StateObserver {
public:
  /// At most this many candidate fields (highest score first) are
  /// profiled per class.
  static constexpr size_t MaxFieldsPerClass = 3;

  /// Takes the candidate fields from the EQ 1 analysis.
  ValueProfiler(Program &P, const std::vector<ClassStateFields> &Candidates);

  /// Marks the candidate fields IsStateField on the Program so the
  /// interpreter fires store events. Call before driving the VM.
  void prepare();

  // --- StateObserver --------------------------------------------------------
  void observeInstanceStore(Object *O, FieldInfo &F) override;
  void observeStaticStore(FieldInfo &F) override;
  void observeConstructorExit(Object *O, MethodInfo &Ctor) override;

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

  /// Heap census: samples every allocated instance of a candidate class,
  /// live or garbage not yet collected (Heap::forEachObject does not
  /// mark). The online pipeline uses this to see objects whose state was
  /// set before the profiling window opened (store sampling alone misses
  /// them).
  void censusHeap(const Heap &H);

  /// Returns, per class, the value tuples covering at least MinFraction of
  /// the class's samples (at most MaxStates, heaviest first).
  std::vector<ClassStates> mine(double MinFraction, size_t MaxStates) const;

private:
  struct PerClass {
    ClassId Cls = NoClassId;
    std::vector<FieldId> InstanceFields; ///< score order
    std::vector<FieldId> StaticFields;
    std::map<std::vector<int64_t>, uint64_t> Histogram;
    uint64_t Samples = 0;
  };

  PerClass *classEntry(ClassId C);
  void sampleObject(Object *O, PerClass &PC);
  void sampleStaticOnly(PerClass &PC);

  Program &P;
  std::vector<PerClass> Classes;
};

} // namespace dchm

#endif // DCHM_ANALYSIS_VALUEPROFILER_H
