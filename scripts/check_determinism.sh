#!/usr/bin/env bash
#===-- scripts/check_determinism.sh - Specialization-cache determinism gate ===#
#
# Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
# (Su & Lipasti, CGO 2006).
#
# Verifies the invariant of docs/compile_pipeline.md from the outside: the
# program output and every simulated counter printed by `dchm_run run` must
# be bit-identical — modulo host-side code-byte accounting — across the
# specialization cache ON/OFF.
#
# Usage: scripts/check_determinism.sh [build-dir]
#   WORKLOADS="SalaryDB SPECjbb2000" SCALE=0.2 override the defaults.
#
#===---------------------------------------------------------------------===#
set -u

BUILD="${1:-build}"
RUN="$BUILD/tools/dchm_run"
if [ ! -x "$RUN" ]; then
  echo "error: $RUN not found or not executable (pass the build dir)" >&2
  exit 2
fi

WORKLOADS="${WORKLOADS:-SalaryDB SPECjbb2000}"
SCALE="${SCALE:-0.2}"
FAIL=0

# Wall time is the one legitimately nondeterministic line.
run_cfg() { # cache workload extra-flags...
  local CACHE="$1" W="$2"
  shift 2
  DCHM_SPEC_CACHE="$CACHE" "$RUN" run "$W" --scale="$SCALE" "$@" |
    grep -v "wall time:"
}

check() { # label reference candidate
  if [ "$2" != "$3" ]; then
    echo "FAIL: $1 diverges"
    diff <(printf '%s\n' "$2") <(printf '%s\n' "$3") | head -20
    FAIL=1
  else
    echo "ok:   $1"
  fi
}

for W in $WORKLOADS; do
  for MODE in "" "--online"; do
    LABEL="$W${MODE:+ $MODE}"

    # Cache sweep: simulated counters and output must match; code bytes may
    # legitimately shrink (deduplicated special bodies).
    REF="$(run_cfg ON "$W" $MODE | grep -v "code bytes:")"
    OUT="$(run_cfg OFF "$W" $MODE | grep -v "code bytes:")"
    check "$LABEL spec-cache off" "$REF" "$OUT"
  done
done

if [ "$FAIL" -ne 0 ]; then
  echo "determinism check FAILED" >&2
  exit 1
fi
echo "determinism check passed: output and simulated counts identical"
