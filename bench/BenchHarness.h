//===-- bench/BenchHarness.h - Experiment harness --------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark binaries: the header each one prints and
/// a JSON writer for their BENCH_*.json artifacts.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_BENCH_BENCHHARNESS_H
#define DCHM_BENCH_BENCHHARNESS_H

#include <cstdint>
#include <string>

namespace dchm {
namespace bench {

/// Minimal JSON emitter for the machine-readable BENCH_*.json artifacts the
/// benchmark binaries write next to their human-readable tables. Handles
/// comma placement across (possibly nested) objects and arrays; values are
/// numbers, booleans, and strings (escaped for quotes and backslashes).
class JsonWriter {
public:
  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray(const char *Key);
  JsonWriter &endArray();
  /// Starts an anonymous object as the next array element.
  JsonWriter &beginArrayObject();
  JsonWriter &field(const char *Key, const std::string &V);
  JsonWriter &field(const char *Key, const char *V);
  JsonWriter &field(const char *Key, double V);
  JsonWriter &field(const char *Key, uint64_t V);
  JsonWriter &field(const char *Key, int64_t V);
  JsonWriter &field(const char *Key, bool V);

  const std::string &str() const { return Out; }
  /// Writes the accumulated document (plus a trailing newline) to Path.
  bool writeFile(const std::string &Path) const;

private:
  void comma();
  void key(const char *Key);
  std::string Out;
  bool NeedComma = false;
};

/// Prints the standard header naming the figure being regenerated.
void printHeader(const char *Figure, const char *Caption);

} // namespace bench
} // namespace dchm

#endif // DCHM_BENCH_BENCHHARNESS_H
