//===-- workloads/Applications.cpp - The five single-run Table 1 programs -===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// The drivers of SalaryDB, SimLogic, CSVToXML, Java2XHTML and Weka. Each
/// program is the .mvm text of the same name in this directory, and each
/// run goes the same way: seed the program's random generator, call its
/// init method once, call its batch method a scaled number of times, and
/// print its checksum.
///
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include <algorithm>

namespace dchm {

// The programs, compiled in.
extern const char SalaryDbMvm[], SimLogicMvm[], CsvToXmlMvm[],
    Java2XhtmlMvm[], WekaMiniMvm[];

namespace {

/// How a run of one application goes. Methods are named "Class.method".
struct AppSpec {
  const char *Name, *Description, *Source;
  const char *SeedClass; ///< its static `seed` is set first; null: none
  int64_t Seed;
  const char *Init;
  std::vector<int64_t> InitArgs;
  const char *Batch;
  std::vector<int64_t> BatchArgs;
  long Batches, MinBatches; ///< at scale 1, and at any scale
  const char *CheckSum;
};

std::vector<Value> values(const std::vector<int64_t> &Ints) {
  std::vector<Value> Vs;
  for (int64_t I : Ints)
    Vs.push_back(valueI(I));
  return Vs;
}

class Application final : public Workload {
public:
  explicit Application(AppSpec S) : S(std::move(S)) { Source = this->S.Source; }

  std::string name() const override { return S.Name; }
  std::string description() const override { return S.Description; }

  void driveScaled(VirtualMachine &VM, double Scale) override {
    Program &P = VM.program();
    ProgramIds Ids(P);
    auto Method = [&](const std::string &Q) {
      size_t Dot = Q.find('.');
      return Ids.method(Q.substr(0, Dot), Q.substr(Dot + 1));
    };
    if (S.SeedClass)
      P.setStaticSlot(P.field(Ids.field(S.SeedClass, "seed")).Slot,
                      valueI(S.Seed));
    VM.call(Method(S.Init), values(S.InitArgs));
    long Batches = std::max(static_cast<long>(S.Batches * Scale), S.MinBatches);
    MethodId Batch = Method(S.Batch);
    for (long B = 0; B < Batches; ++B)
      VM.call(Batch, values(S.BatchArgs));
    VM.call(Method(S.CheckSum), {});
  }

private:
  AppSpec S;
};

} // namespace

std::unique_ptr<Workload> makeSalaryDb() {
  return std::make_unique<Application>(AppSpec{
      "SalaryDB", "Microbenchmark: grade-state employee salary raises",
      SalaryDbMvm, nullptr, 0, "TestDriver.init", {400},
      "TestDriver.runBatch", {4}, 600, 10, "TestDriver.checkSum"});
}

std::unique_ptr<Workload> makeSimLogic() {
  return std::make_unique<Application>(AppSpec{
      "SimLogic", "Simple logic simulator with state-kind gates", SimLogicMvm,
      "Circuit", 0x1234567, "Circuit.init", {96, 16}, "SimMain.run", {24},
      220, 8, "SimMain.checkSum"});
}

std::unique_ptr<Workload> makeCsvToXml() {
  return std::make_unique<Application>(AppSpec{
      "CSVToXML", "CSV to XML conversion with configuration-state converter",
      CsvToXmlMvm, "CsvMain", 777, "CsvMain.init", {2000}, "CsvMain.convert",
      {}, 160, 6, "CsvMain.checkSum"});
}

std::unique_ptr<Workload> makeJava2Xhtml() {
  return std::make_unique<Application>(AppSpec{
      "Java2XHTML", "Java to XHTML conversion with style-state formatter",
      Java2XhtmlMvm, "J2xMain", 4242, "J2xMain.init", {2500},
      "J2xMain.format", {}, 140, 6, "J2xMain.checkSum"});
}

std::unique_ptr<Workload> makeWekaMini() {
  return std::make_unique<Application>(AppSpec{
      "Weka", "Data mining algorithm tool set (classifier evaluation)",
      WekaMiniMvm, "Dataset", 20060325, "WekaMain.init", {300, 24},
      "WekaMain.run", {}, 130, 6, "WekaMain.checkSum"});
}

} // namespace dchm
