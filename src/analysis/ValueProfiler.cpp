//===-- analysis/ValueProfiler.cpp - Hot-state mining ------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "analysis/ValueProfiler.h"

#include <algorithm>

namespace dchm {

ValueProfiler::ValueProfiler(Program &P,
                             const std::vector<ClassStateFields> &Candidates)
    : P(P) {
  for (const ClassStateFields &CSF : Candidates) {
    PerClass PC;
    PC.Cls = CSF.Cls;
    size_t Take = std::min(MaxFieldsPerClass, CSF.Candidates.size());
    for (size_t I = 0; I < Take; ++I) {
      FieldId F = CSF.Candidates[I].Field;
      if (P.field(F).IsStatic)
        PC.StaticFields.push_back(F);
      else
        PC.InstanceFields.push_back(F);
    }
    if (!PC.InstanceFields.empty() || !PC.StaticFields.empty())
      Classes.push_back(std::move(PC));
  }
}

void ValueProfiler::prepare() {
  for (const PerClass &PC : Classes) {
    for (FieldId F : PC.InstanceFields)
      P.field(F).IsStateField = true;
    for (FieldId F : PC.StaticFields)
      P.field(F).IsStateField = true;
  }
}

ValueProfiler::PerClass *ValueProfiler::classEntry(ClassId C) {
  for (PerClass &PC : Classes)
    if (PC.Cls == C)
      return &PC;
  return nullptr;
}

void ValueProfiler::sampleObject(Object *O, PerClass &PC) {
  std::vector<int64_t> Tuple;
  Tuple.reserve(PC.InstanceFields.size() + PC.StaticFields.size());
  for (FieldId F : PC.InstanceFields)
    Tuple.push_back(O->get(P.field(F).Slot).I);
  for (FieldId F : PC.StaticFields)
    Tuple.push_back(P.getStaticSlot(P.field(F).Slot).I);
  PC.Histogram[Tuple]++;
  PC.Samples++;
}

void ValueProfiler::sampleStaticOnly(PerClass &PC) {
  if (!PC.InstanceFields.empty())
    return; // instance-part unknown without an object in hand
  std::vector<int64_t> Tuple;
  for (FieldId F : PC.StaticFields)
    Tuple.push_back(P.getStaticSlot(P.field(F).Slot).I);
  PC.Histogram[Tuple]++;
  PC.Samples++;
}

void ValueProfiler::observeInstanceStore(Object *O, FieldInfo &F) {
  // Sample against the object's *exact* class: mutation never applies to
  // subclasses of a mutable class.
  if (PerClass *PC = classEntry(O->Tib->Cls->Id))
    sampleObject(O, *PC);
}

void ValueProfiler::observeStaticStore(FieldInfo &F) {
  for (PerClass &PC : Classes) {
    bool Tracks = std::find(PC.StaticFields.begin(), PC.StaticFields.end(),
                            F.Id) != PC.StaticFields.end();
    if (Tracks)
      sampleStaticOnly(PC);
  }
}

void ValueProfiler::observeConstructorExit(Object *O, MethodInfo &Ctor) {
  if (!O)
    return;
  if (PerClass *PC = classEntry(O->Tib->Cls->Id))
    sampleObject(O, *PC);
}

void ValueProfiler::censusHeap(const Heap &H) {
  H.forEachObject([&](Object *O) {
    if (O->IsArray || !O->Tib)
      return;
    if (PerClass *PC = classEntry(O->Tib->Cls->Id))
      sampleObject(O, *PC);
  });
}

std::vector<ValueProfiler::ClassStates>
ValueProfiler::mine(double MinFraction, size_t MaxStates) const {
  std::vector<ClassStates> Out;
  for (const PerClass &PC : Classes) {
    if (PC.Samples == 0)
      continue;
    ClassStates CS;
    CS.Cls = PC.Cls;
    CS.InstanceFields = PC.InstanceFields;
    CS.StaticFields = PC.StaticFields;
    CS.Samples = PC.Samples;

    std::vector<std::pair<const std::vector<int64_t> *, uint64_t>> Ranked;
    for (auto &[Tuple, Count] : PC.Histogram)
      Ranked.emplace_back(&Tuple, Count);
    std::sort(Ranked.begin(), Ranked.end(),
              [](auto &A, auto &B) { return A.second > B.second; });

    for (auto &[Tuple, Count] : Ranked) {
      double Share =
          static_cast<double>(Count) / static_cast<double>(PC.Samples);
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
