//===-- bench/BenchHarness.cpp - Experiment harness ---------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include <cstdio>

namespace dchm {
namespace bench {

void JsonWriter::comma() {
  if (NeedComma)
    Out += ',';
  NeedComma = false;
}

void JsonWriter::key(const char *Key) {
  comma();
  Out += '"';
  Out += Key;
  Out += "\":";
}

JsonWriter &JsonWriter::beginObject() {
  comma();
  Out += '{';
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  Out += '}';
  NeedComma = true;
  return *this;
}

JsonWriter &JsonWriter::beginArray(const char *Key) {
  this->key(Key);
  Out += '[';
  NeedComma = false;
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  Out += ']';
  NeedComma = true;
  return *this;
}

JsonWriter &JsonWriter::beginArrayObject() {
  comma();
  Out += '{';
  return *this;
}

JsonWriter &JsonWriter::field(const char *Key, const std::string &V) {
  this->key(Key);
  Out += '"';
  for (char Ch : V) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    Out += Ch;
  }
  Out += '"';
  NeedComma = true;
  return *this;
}

JsonWriter &JsonWriter::field(const char *Key, const char *V) {
  return field(Key, std::string(V));
}

JsonWriter &JsonWriter::field(const char *Key, double V) {
  this->key(Key);
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  Out += Buf;
  NeedComma = true;
  return *this;
}

JsonWriter &JsonWriter::field(const char *Key, uint64_t V) {
  this->key(Key);
  Out += std::to_string(V);
  NeedComma = true;
  return *this;
}

JsonWriter &JsonWriter::field(const char *Key, int64_t V) {
  this->key(Key);
  Out += std::to_string(V);
  NeedComma = true;
  return *this;
}

JsonWriter &JsonWriter::field(const char *Key, bool V) {
  this->key(Key);
  Out += V ? "true" : "false";
  NeedComma = true;
  return *this;
}

bool JsonWriter::writeFile(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fwrite(Out.data(), 1, Out.size(), F);
  std::fputc('\n', F);
  std::fclose(F);
  return true;
}

void printHeader(const char *Figure, const char *Caption) {
  std::printf("=== DCHM reproduction: %s ===\n", Figure);
  std::printf("%s\n", Caption);
  std::printf("(simulated cycles; deterministic cost model; "
              "paper values for comparison)\n\n");
}

} // namespace bench
} // namespace dchm
