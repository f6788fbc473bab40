//===-- analysis/ValueProfiler.cpp - Hot-state mining ------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "analysis/ValueProfiler.h"

#include "support/Debug.h"

#include <algorithm>

namespace dchm {

namespace {

/// Position of F in Fields (which must hold it).
size_t indexOf(const std::vector<FieldId> &Fields, FieldId F) {
  auto It = std::find(Fields.begin(), Fields.end(), F);
  DCHM_CHECK(It != Fields.end(), "value profiler: profiled field not observed");
  return static_cast<size_t>(It - Fields.begin());
}

bool contains(const std::vector<FieldId> &Fields, FieldId F) {
  return std::find(Fields.begin(), Fields.end(), F) != Fields.end();
}

/// One candidate class's profiled fields, split as the plan stores them.
struct ProfiledClass {
  std::vector<FieldId> InstanceFields; ///< score order
  std::vector<FieldId> StaticFields;   ///< score order
};

ProfiledClass profiledClass(const Program &P, const ClassStateFields &CSF) {
  ProfiledClass PC;
  size_t Take = std::min(ValueProfiler::MaxFieldsPerClass,
                         CSF.Candidates.size());
  for (size_t I = 0; I < Take; ++I) {
    FieldId F = CSF.Candidates[I].Field;
    (P.field(F).IsStatic ? PC.StaticFields : PC.InstanceFields).push_back(F);
  }
  return PC;
}

} // namespace

std::vector<FieldId>
ValueProfiler::profiledFields(const std::vector<ClassStateFields> &Candidates) {
  std::vector<FieldId> Out;
  for (const ClassStateFields &CSF : Candidates) {
    size_t Take = std::min(MaxFieldsPerClass, CSF.Candidates.size());
    for (size_t I = 0; I < Take; ++I)
      Out.push_back(CSF.Candidates[I].Field);
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

ValueProfiler::ValueProfiler(const Program &P,
                             const std::vector<FieldId> &Observed)
    : P(P), LogOf(P.numClasses(), -1) {
  std::vector<FieldId> Sorted = Observed;
  std::sort(Sorted.begin(), Sorted.end());
  for (FieldId F : Sorted)
    if (P.field(F).IsStatic)
      StaticFields.push_back(F);
  // A class logs the observed fields it declares or inherits: exactly the
  // fields EQ 1 may attribute to it.
  for (size_t CIdx = 0; CIdx < P.numClasses(); ++CIdx) {
    const ClassInfo &C = P.cls(static_cast<ClassId>(CIdx));
    if (C.IsInterface)
      continue;
    ClassLog Log;
    for (FieldId F : Sorted) {
      const FieldInfo &FI = P.field(F);
      if (std::find(C.Ancestors.begin(), C.Ancestors.end(), FI.Owner) ==
          C.Ancestors.end())
        continue;
      (FI.IsStatic ? Log.StaticFields : Log.InstanceFields).push_back(F);
    }
    if (Log.InstanceFields.empty() && Log.StaticFields.empty())
      continue;
    LogOf[CIdx] = static_cast<int>(Logs.size());
    Logs.push_back(std::move(Log));
  }
}

void ValueProfiler::record(Object *O, int64_t Code) {
  // Logged against the object's *exact* class: mutation never applies to
  // subclasses of a mutable class.
  int L = LogOf[O->tib()->Cls->Id];
  if (L < 0)
    return;
  ClassLog &Log = Logs[static_cast<size_t>(L)];
  KeyBuf.clear();
  KeyBuf.push_back(Code);
  for (FieldId F : Log.InstanceFields)
    KeyBuf.push_back(O->get(P.field(F).Slot).I);
  for (FieldId F : Log.StaticFields)
    KeyBuf.push_back(P.getStaticSlot(P.field(F).Slot).I);
  auto It = Log.Events.find(KeyBuf);
  if (It == Log.Events.end())
    Log.Events.emplace(KeyBuf, 1);
  else
    ++It->second;
}

void ValueProfiler::observeInstanceStore(Object *O, FieldInfo &F) {
  record(O, F.Id);
}

void ValueProfiler::observeStaticStore(FieldInfo &F) {
  KeyBuf.clear();
  KeyBuf.push_back(F.Id);
  for (FieldId S : StaticFields)
    KeyBuf.push_back(P.getStaticSlot(P.field(S).Slot).I);
  ++StaticStores[KeyBuf];
}

void ValueProfiler::observeConstructorExit(Object *O, MethodInfo &) {
  if (O)
    record(O, Snapshot);
}

void ValueProfiler::censusHeap(const Heap &H) {
  H.forEachObject([&](Object *O) {
    if (!O->isArray())
      record(O, Snapshot);
  });
}

std::vector<ValueProfiler::ClassStates>
ValueProfiler::mine(const std::vector<ClassStateFields> &Candidates,
                    double MinFraction, size_t MaxStates) const {
  std::vector<FieldId> Profiled = profiledFields(Candidates);
  std::vector<ClassStates> Out;
  for (const ClassStateFields &CSF : Candidates) {
    ProfiledClass PC = profiledClass(P, CSF);
    if (PC.InstanceFields.empty() && PC.StaticFields.empty())
      continue;

    // Project the class's events onto its profiled fields.
    std::map<std::vector<int64_t>, uint64_t> Histogram;
    uint64_t Samples = 0;
    std::vector<int64_t> Proj;
    auto Add = [&](const std::vector<int64_t> &Key,
                   const std::vector<size_t> &Pos, uint64_t Count) {
      Proj.clear();
      for (size_t I : Pos)
        Proj.push_back(Key[1 + I]);
      Histogram[Proj] += Count;
      Samples += Count;
    };
    if (int L = LogOf[CSF.Cls]; L >= 0) {
      const ClassLog &Log = Logs[static_cast<size_t>(L)];
      std::vector<size_t> Pos;
      for (FieldId F : PC.InstanceFields)
        Pos.push_back(indexOf(Log.InstanceFields, F));
      for (FieldId F : PC.StaticFields)
        Pos.push_back(Log.InstanceFields.size() +
                      indexOf(Log.StaticFields, F));
      for (const auto &[Key, Count] : Log.Events)
        if (Key[0] == Snapshot ||
            contains(Profiled, static_cast<FieldId>(Key[0])))
          Add(Key, Pos, Count);
    }
    // A static store says nothing about any object, so only a class whose
    // state is all static samples it.
    if (PC.InstanceFields.empty()) {
      std::vector<size_t> Pos;
      for (FieldId F : PC.StaticFields)
        Pos.push_back(indexOf(StaticFields, F));
      for (const auto &[Key, Count] : StaticStores)
        if (contains(PC.StaticFields, static_cast<FieldId>(Key[0])))
          Add(Key, Pos, Count);
    }
    if (Samples == 0)
      continue;

    ClassStates CS;
    CS.Cls = CSF.Cls;
    CS.InstanceFields = PC.InstanceFields;
    CS.StaticFields = PC.StaticFields;
    CS.Samples = Samples;

    std::vector<std::pair<const std::vector<int64_t> *, uint64_t>> Ranked;
    for (auto &[Tuple, Count] : Histogram)
      Ranked.emplace_back(&Tuple, Count);
    std::sort(Ranked.begin(), Ranked.end(),
              [](auto &A, auto &B) { return A.second > B.second; });

    for (auto &[Tuple, Count] : Ranked) {
      double Share = static_cast<double>(Count) / static_cast<double>(Samples);
      if (Share < MinFraction || CS.Hot.size() >= MaxStates)
        break;
      MinedState MS;
      MS.Weight = Share;
      size_t NI = PC.InstanceFields.size();
      for (size_t I = 0; I < Tuple->size(); ++I) {
        Value V;
        V.I = (*Tuple)[I];
        if (I < NI)
          MS.InstanceVals.push_back(V);
        else
          MS.StaticVals.push_back(V);
      }
      CS.Hot.push_back(std::move(MS));
    }
    if (!CS.Hot.empty())
      Out.push_back(std::move(CS));
  }
  return Out;
}

} // namespace dchm
