//===-- support/Parse.h - Strict numeric parsing ---------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict number parsing for command-line flags. The whole string must be
/// one base-10 number inside the caller's range: "4x", "", " 4" and
/// out-of-range values are errors, never a silently accepted prefix or a
/// wrapped value. The *Flag front ends print a
/// diagnostic naming the flag and exit with status 1, the tools' convention
/// for bad input.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_SUPPORT_PARSE_H
#define DCHM_SUPPORT_PARSE_H

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dchm {

/// Parses all of S as a base-10 integer in [Min, Max].
inline bool parseInt(const char *S, long long Min, long long Max,
                     long long &Out) {
  if (!S || !*S || std::isspace(static_cast<unsigned char>(*S)))
    return false;
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(S, &End, 10);
  if (*End != '\0' || errno == ERANGE || N < Min || N > Max)
    return false;
  Out = N;
  return true;
}

/// Parses all of S as a finite decimal number in (0, Max].
inline bool parsePositiveReal(const char *S, double Max, double &Out) {
  if (!S || !*S || std::isspace(static_cast<unsigned char>(*S)))
    return false;
  char *End = nullptr;
  errno = 0;
  double V = std::strtod(S, &End);
  if (*End != '\0' || errno == ERANGE || !std::isfinite(V) || !(V > 0.0) ||
      V > Max)
    return false;
  Out = V;
  return true;
}

/// The value S of command-line flag Flag as an integer in [Min, Max], or a
/// diagnostic on stderr and exit(1).
inline long long intFlag(const char *Flag, const char *S, long long Min,
                         long long Max) {
  long long N = 0;
  if (parseInt(S, Min, Max, N))
    return N;
  std::fprintf(stderr, "bad %s value '%s' (want an integer in [%lld, %lld])\n",
               Flag, S, Min, Max);
  std::exit(1);
}

/// The value S of command-line flag Flag as a number in (0, Max], or a
/// diagnostic on stderr and exit(1).
inline double positiveRealFlag(const char *Flag, const char *S, double Max) {
  double V = 0.0;
  if (parsePositiveReal(S, Max, V))
    return V;
  std::fprintf(stderr, "bad %s value '%s' (want a positive number up to %g)\n",
               Flag, S, Max);
  std::exit(1);
}

} // namespace dchm

#endif // DCHM_SUPPORT_PARSE_H
