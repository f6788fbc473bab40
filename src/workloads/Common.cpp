//===-- workloads/Common.cpp - Shared workload utilities ----------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include "support/Debug.h"

namespace dchm {

// The five single-run programs, compiled in; each workload is its text.
extern const char SalaryDbMvm[], SimLogicMvm[], CsvToXmlMvm[],
    Java2XhtmlMvm[], WekaMiniMvm[];

AssemblyResult Workload::assemble() {
  AssemblyResult R = assembleProgram(Source);
  if (!R.ok())
    reportFatalErrorf("workload %s does not assemble: %s", Name.c_str(),
                      R.Error.c_str());
  if (R.Directives.Drive.Init == NoMethodId)
    reportFatalErrorf("workload %s has no #!drive line", Name.c_str());
  Drive = R.Directives.Drive;
  return R;
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

std::unique_ptr<Workload> makeSalaryDb() {
  return std::make_unique<Workload>(
      "SalaryDB", "Microbenchmark: grade-state employee salary raises",
      SalaryDbMvm);
}

std::unique_ptr<Workload> makeSimLogic() {
  return std::make_unique<Workload>(
      "SimLogic", "Simple logic simulator with state-kind gates", SimLogicMvm);
}

std::unique_ptr<Workload> makeCsvToXml() {
  return std::make_unique<Workload>(
      "CSVToXML", "CSV to XML conversion with configuration-state converter",
      CsvToXmlMvm);
}

std::unique_ptr<Workload> makeJava2Xhtml() {
  return std::make_unique<Workload>(
      "Java2XHTML", "Java to XHTML conversion with style-state formatter",
      Java2XhtmlMvm);
}

std::unique_ptr<Workload> makeWekaMini() {
  return std::make_unique<Workload>(
      "Weka", "Data mining algorithm tool set (classifier evaluation)",
      WekaMiniMvm);
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
