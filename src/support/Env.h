//===-- support/Env.h - DCHM_* environment knob registry ----------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// Every host-side environment knob the runtime reads lives in one table here,
// with a shared parser, so adding a knob means adding a row instead of another
// copy-pasted std::getenv block. The table is also the only place a knob's
// default is written: VirtualMachine resolves every VMOptions setting left
// unset through boolValue()/intValue(). `dchm_run --print-env` renders it.
//
//===----------------------------------------------------------------------===//

#ifndef DCHM_SUPPORT_ENV_H
#define DCHM_SUPPORT_ENV_H

#include "support/Parse.h"

#include <cstdlib>
#include <cstring>
#include <string>

namespace dchm {
namespace env {

enum class KnobType { Bool, Int };

/// One DCHM_* environment variable: name, shape, default (parsed like an
/// environment value and shown as-is by --print-env), legal integer range,
/// and a one-line doc.
struct Knob {
  const char *Name;
  KnobType Ty;
  const char *Default;
  long long Min; ///< Int knobs: malformed values or ones outside
                 ///< [Min, Max] are ignored
  long long Max;
  const char *Doc;
};

/// The registry. Order is the --print-env display order.
inline constexpr Knob Knobs[] = {
    {"DCHM_THREADS", KnobType::Int, "1", 1, 64,
     "number of mutator (application) threads the VM runs"},
    {"DCHM_AUDIT", KnobType::Bool, "off", 0, 0,
     "run the consistency auditor at safepoints and transitions"},
    {"DCHM_CODE_BUDGET", KnobType::Int, "0", 1, (1ll << 62),
     "code/TIB byte budget for graceful degradation (0 = unlimited)"},
};

inline constexpr size_t NumKnobs = sizeof(Knobs) / sizeof(Knobs[0]);

/// Shared OFF spelling: "OFF", "off", "0" and "false" are false, anything
/// else set is true.
inline bool parseBool(const char *E) {
  return !(std::strcmp(E, "OFF") == 0 || std::strcmp(E, "off") == 0 ||
           std::strcmp(E, "0") == 0 || std::strcmp(E, "false") == 0);
}

/// The registered knob called Name. Asking for an unregistered name is a
/// programming error and aborts.
inline const Knob &knob(const char *Name) {
  for (const Knob &K : Knobs)
    if (std::strcmp(K.Name, Name) == 0)
      return K;
  std::abort();
}

/// A Bool knob's value: the environment's when set, else the table default.
inline bool boolValue(const char *Name) {
  const Knob &K = knob(Name);
  const char *E = std::getenv(Name);
  return parseBool(E ? E : K.Default);
}

/// An Int knob's value: the environment's when it is a whole integer inside
/// the registered [Min, Max] range ("4x" is not), else the table default.
inline long long intValue(const char *Name) {
  const Knob &K = knob(Name);
  long long N = 0;
  if (parseInt(std::getenv(Name), K.Min, K.Max, N))
    return N;
  return std::strtoll(K.Default, nullptr, 10);
}

/// Renders the registry (one knob per line) for `dchm_run --print-env`.
/// Set values are annotated with their current environment override.
inline std::string printTable() {
  std::string Out;
  for (const Knob &K : Knobs) {
    std::string Line = "  ";
    Line += K.Name;
    while (Line.size() < 30)
      Line += ' ';
    Line += (K.Ty == KnobType::Bool) ? "bool " : "int  ";
    Line += "default=";
    Line += K.Default;
    const char *E = std::getenv(K.Name);
    if (E) {
      Line += "  [set: ";
      Line += E;
      Line += "]";
    }
    Line += "\n      ";
    Line += K.Doc;
    Line += "\n";
    Out += Line;
  }
  return Out;
}

} // namespace env
} // namespace dchm

#endif // DCHM_SUPPORT_ENV_H
