//===-- testing/RunDirectives.cpp - The `#!` lines of a .mvm program ----------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// parseRunDirectives and runDrive (testing/MvmRun.h), in an object of
/// their own so that a program which only drives workloads links neither
/// runMvm nor the auditor.
///
//===----------------------------------------------------------------------===//

#include "testing/MvmRun.h"

#include "support/Parse.h"

#include <algorithm>
#include <climits>
#include <set>
#include <sstream>

namespace dchm {

namespace {

std::vector<std::string> splitCsv(const std::string &S) {
  std::vector<std::string> Parts;
  if (S == "-" || S.empty())
    return Parts;
  for (size_t At = 0, Comma = 0; Comma != std::string::npos; At = Comma + 1) {
    Comma = S.find(',', At);
    Parts.push_back(S.substr(At, Comma - At));
  }
  return Parts;
}

bool parseInts(const std::string &Csv, std::vector<Value> &Vals) {
  for (const std::string &S : splitCsv(Csv)) {
    long long N = 0;
    if (!parseInt(S.c_str(), LLONG_MIN, LLONG_MAX, N))
      return false;
    Vals.push_back(valueI(N));
  }
  return true;
}

/// `C.m(<n>,...)`, or `C.m` with no arguments: a static method of P whose
/// parameters are that many i64s.
bool parseCall(const std::string &S, const Program &P, MethodId &M,
               std::vector<Value> &Args) {
  size_t Open = std::min(S.find('('), S.size()), Dot = S.find('.');
  if (Open < S.size() &&
      (S.back() != ')' ||
       !parseInts(S.substr(Open + 1, S.size() - Open - 2), Args)))
    return false;
  ClassId C = Dot < Open ? P.findClass(S.substr(0, Dot)) : NoClassId;
  M = C == NoClassId ? NoMethodId
                     : P.findMethod(C, S.substr(Dot + 1, Open - Dot - 1));
  if (M == NoMethodId)
    return false;
  const MethodInfo &MI = P.method(M);
  return MI.Flags.IsStatic && MI.HasBody &&
         MI.ParamTys == std::vector<Type>(Args.size(), Type::I64);
}

/// The key=value tokens after `#!drive`, each key at most once. (A token
/// without '=' is its own key and value, which no key accepts.)
bool parseDrive(const std::vector<std::string> &Tok, const Program &P,
                DriveDirective &D) {
  std::set<std::string> Seen;
  for (size_t I = 1; I < Tok.size(); ++I) {
    size_t Eq = Tok[I].find('=');
    std::string Key = Tok[I].substr(0, Eq), Val = Tok[I].substr(Eq + 1);
    long long N = 0;
    if (!Seen.insert(Key).second)
      return false;
    if (Key == "seed") {
      size_t Dot = Val.find('.'), Colon = Val.find(':');
      if (Dot >= Colon || Colon == std::string::npos ||
          !parseInt(Val.c_str() + Colon + 1, LLONG_MIN, LLONG_MAX, N))
        return false;
      ClassId C = P.findClass(Val.substr(0, Dot));
      FieldId F = C == NoClassId ? NoFieldId
                                 : P.findField(C, Val.substr(Dot + 1,
                                                             Colon - Dot - 1));
      if (F == NoFieldId || !P.field(F).IsStatic || P.field(F).Ty != Type::I64)
        return false;
      D.SeedField = F;
      D.Seed = N;
    } else if (Key == "batch") {
      size_t X = Val.rfind('x');
      if (X == std::string::npos ||
          !parseInt(Val.c_str() + X + 1, 1, INT_MAX, N) ||
          !parseCall(Val.substr(0, X), P, D.Batch, D.BatchArgs))
        return false;
      D.Batches = static_cast<long>(N);
    } else if (Key == "min") {
      if (!parseInt(Val.c_str(), 0, INT_MAX, N))
        return false;
      D.MinBatches = static_cast<long>(N);
    } else if (!(Key == "init" && parseCall(Val, P, D.Init, D.InitArgs)) &&
               !(Key == "check" && parseCall(Val, P, D.Check, D.CheckArgs))) {
      return false;
    }
  }
  return Seen.count("init") && Seen.count("batch") && Seen.count("check");
}

} // namespace

bool parseRunDirectives(const std::string &Source, const Program &P,
                        RunDirectives &Out, std::string &Err) {
  auto Fail = [&](const std::string &E) {
    Err = E;
    return false;
  };

  std::istringstream In(Source);
  std::string Line;
  while (std::getline(In, Line)) {
    // `#!threads` selects `dchm_run exec`'s replay mode (see
    // hasThreadsDirective); it carries no plan data.
    if (Line.rfind("#!", 0) != 0 || Line == "#!threads")
      continue;
    std::istringstream LS(Line.substr(2));
    std::vector<std::string> Tok;
    for (std::string T; LS >> T;)
      Tok.push_back(T);
    const std::string Kind = Tok.empty() ? "" : Tok[0];
    if (Kind == "adaptive") {
      long long O1 = 0, O2 = 0;
      if (Tok.size() != 3 || !parseInt(Tok[1].c_str(), 1, LLONG_MAX, O1) ||
          !parseInt(Tok[2].c_str(), 1, LLONG_MAX, O2))
        return Fail("#!adaptive wants two positive thresholds: " + Line);
      Out.Opt1 = static_cast<uint64_t>(O1);
      Out.Opt2 = static_cast<uint64_t>(O2);
    } else if (Kind == "segments") {
      long long Segs = 0;
      if (Tok.size() != 2 || !parseInt(Tok[1].c_str(), 2, 64, Segs))
        return Fail("#!segments wants one count in [2,64]: " + Line);
      Out.Segments = static_cast<int>(Segs);
    } else if (Kind == "drive") {
      if (Out.Drive.Init != NoMethodId || !parseDrive(Tok, P, Out.Drive))
        return Fail("#!drive wants one line of [seed=C.f:<n>] init=<call> "
                    "batch=<call>x<count> [min=<n>] check=<call>: " + Line);
    } else if (Kind == "mutable") {
      std::string ClsName = Tok.size() > 1 ? Tok[1] : "";
      ClassId Cls = P.findClass(ClsName);
      if (Cls == NoClassId)
        return Fail("#!mutable names unknown class " + ClsName);
      MutableClassPlan CP;
      CP.Cls = Cls;
      for (size_t I = 2; I < Tok.size(); ++I) {
        const std::string &KV = Tok[I];
        size_t Eq = KV.find('=');
        if (Eq == std::string::npos)
          return Fail("#!mutable wants key=value pairs: " + KV);
        std::string Key = KV.substr(0, Eq);
        for (const std::string &Nm : splitCsv(KV.substr(Eq + 1))) {
          if (Key == "instance" || Key == "static") {
            FieldId F = P.findField(Cls, Nm);
            if (F == NoFieldId)
              return Fail(ClsName + " has no field " + Nm);
            (Key == "instance" ? CP.InstanceStateFields
                               : CP.StaticStateFields)
                .push_back(F);
          } else if (Key == "methods") {
            MethodId M = P.findMethod(Cls, Nm);
            if (M == NoMethodId)
              return Fail(ClsName + " has no method " + Nm);
            CP.MutableMethods.push_back(M);
          } else {
            return Fail("#!mutable key must be instance/static/methods: " +
                        Key);
          }
        }
      }
      Out.Plan.Classes.push_back(std::move(CP));
    } else if (Kind == "hot") {
      if (Tok.size() != 5 || Tok[3] != ":")
        return Fail("#!hot wants '<class> <ivals|-> : <svals|->': " + Line);
      const std::string &ClsName = Tok[1];
      ClassId Cls = P.findClass(ClsName);
      if (Cls == NoClassId)
        return Fail("#!hot names unknown class " + ClsName);
      MutableClassPlan *CP = nullptr;
      for (MutableClassPlan &C : Out.Plan.Classes)
        if (C.Cls == Cls)
          CP = &C;
      if (!CP)
        return Fail("#!hot before #!mutable for " + ClsName);
      HotState HS;
      if (!parseInts(Tok[2], HS.InstanceVals) ||
          !parseInts(Tok[4], HS.StaticVals))
        return Fail("#!hot wants integer tuples: " + Line);
      if (HS.InstanceVals.size() != CP->InstanceStateFields.size() ||
          HS.StaticVals.size() != CP->StaticStateFields.size())
        return Fail("#!hot tuple sizes do not match the state fields: " +
                    Line);
      CP->HotStates.push_back(std::move(HS));
    } else {
      return Fail("unknown directive #!" + Kind);
    }
  }
  for (const MutableClassPlan &CP : Out.Plan.Classes)
    if (CP.HotStates.empty())
      return Fail("#!mutable class has no #!hot states");
  return true;
}

void startDrive(VirtualMachine &VM, const DriveDirective &D) {
  Program &P = VM.program();
  if (D.SeedField != NoFieldId)
    P.setStaticSlot(P.field(D.SeedField).Slot, valueI(D.Seed));
  VM.call(D.Init, D.InitArgs);
}

void runDrive(VirtualMachine &VM, const DriveDirective &D, double Scale) {
  startDrive(VM, D);
  long Batches = std::max(static_cast<long>(D.Batches * Scale), D.MinBatches);
  for (long B = 0; B < Batches; ++B)
    VM.call(D.Batch, D.BatchArgs);
  VM.call(D.Check, D.CheckArgs);
}

} // namespace dchm
