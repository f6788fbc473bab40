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
  long long Min; ///< Int knobs: values outside [Min, Max] are ignored
  long long Max;
  const char *Doc;
};

/// The registry. Order is the --print-env display order.
inline constexpr Knob Knobs[] = {
    {"DCHM_THREADS", KnobType::Int, "1", 1, 64,
     "number of mutator (application) threads the VM runs"},
    {"DCHM_AUDIT", KnobType::Bool, "off", 0, 0,
     "run the consistency auditor at safepoints and transitions"},
    {"DCHM_ASYNC_COMPILE", KnobType::Bool, "on", 0, 0,
     "compile on background threads instead of synchronously"},
    {"DCHM_COMPILE_THREADS", KnobType::Int, "2", 1, 64,
     "background compiler worker thread count"},
    {"DCHM_SPEC_CACHE", KnobType::Bool, "on", 0, 0,
     "content-keyed specialization cache for special-version compiles"},
    {"DCHM_CODE_BUDGET", KnobType::Int, "0", 1, (1ll << 62),
     "code/TIB byte budget for graceful degradation (0 = unlimited)"},
    {"DCHM_COMPILE_FAULT_EVERY", KnobType::Int, "0", 0, (1ll << 62),
     "inject a compile fault every N jobs (0 = never; testing only)"},
    {"DCHM_COMPILE_FAULT_PERSIST", KnobType::Bool, "off", 0, 0,
     "injected compile faults persist across retry attempts"},
    {"DCHM_COMPILE_MAX_ATTEMPTS", KnobType::Int, "3", 1, 100,
     "compile attempts before a method is quarantined"},
    {"DCHM_COMPILE_DEADLINE_MS", KnobType::Int, "0", 0, (1ll << 62),
     "per-job compile deadline in milliseconds (0 = none)"},
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

/// An Int knob's value: the environment's when set and inside the
/// registered [Min, Max] range, else the table default.
inline long long intValue(const char *Name) {
  const Knob &K = knob(Name);
  if (const char *E = std::getenv(Name)) {
    long long N = std::strtoll(E, nullptr, 10);
    if (N >= K.Min && N <= K.Max)
      return N;
  }
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
