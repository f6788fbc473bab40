//===-- workloads/Common.cpp - Shared workload utilities ----------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include "analysis/OlcAnalysis.h"
#include "support/Debug.h"

namespace dchm {

WorkloadRun::WorkloadRun(Workload &W, const VMOptions &Opts,
                         const MutationPlan *Plan)
    : P(W.buildProgram()), VM(*P, Opts) {
  if (!Opts.EnableMutation || !Plan)
    return;
  VM.setMutationPlan(Plan);
  Olc = analyzeObjectLifetimeConstants(*P, *Plan);
  VM.setOlcDatabase(&Olc);
}

ClassId ProgramIds::cls(const std::string &Name) const {
  ClassId C = P.findClass(Name);
  DCHM_CHECK(C != NoClassId, "unknown class name");
  return C;
}

MethodId ProgramIds::method(const std::string &Cls,
                            const std::string &Name) const {
  MethodId M = P.findMethod(cls(Cls), Name);
  DCHM_CHECK(M != NoMethodId, "unknown method name");
  return M;
}

FieldId ProgramIds::field(const std::string &Cls,
                          const std::string &Name) const {
  FieldId F = P.findField(cls(Cls), Name);
  DCHM_CHECK(F != NoFieldId, "unknown field name");
  return F;
}

std::vector<std::unique_ptr<Workload>> makeAllWorkloads() {
  std::vector<std::unique_ptr<Workload>> W;
  W.push_back(makeSalaryDb());
  W.push_back(makeSimLogic());
  W.push_back(makeCsvToXml());
  W.push_back(makeJava2Xhtml());
  W.push_back(makeWekaMini());
  W.push_back(makeJbb(JbbVariant::Jbb2000));
  W.push_back(makeJbb(JbbVariant::Jbb2005));
  return W;
}

} // namespace dchm
