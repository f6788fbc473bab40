#!/usr/bin/env python3
"""The MiniVM benchmark: one command for every workload.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the library
from ../src) into $CARGO_TARGET_DIR/perfbench (default .bench_build) and runs
one workload:

    python3 perfbench/run.py --workload salarydb --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 1` reports the
per-layer metrics instead of the end-to-end ones and writes a Chrome
trace-event file under the build directory.

    python3 perfbench/run.py --selftest

checks the pinned reference outputs against mutation-off runs, runs every
workload briefly in both modes, validates the output against BENCHMARK.json
and the trace file as JSON, and checks the workload separation the workload
note (perfbench/WORKLOADS.md) predicts.

Run it from the repository root. Exits non-zero, printing no result, when the
library sources are missing or the build or a run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "dchm_perfbench"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout is reserved for results.
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "dchm_perfbench")


def revision():
    """The git revision when the tree is a git checkout, else a digest of
    the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_bench(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, parsed result line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--pins", os.path.join(BENCH_DIR, "pins.txt"),
           "--revision", revision()]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % workload)
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, r.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload)
    return lines, result


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    names = [w["name"] for w in manifest["workloads"]]
    problems = []

    # 1. The pins are the mutation-off outputs, not the mutated VM's.
    pins = {}
    with open(os.path.join(BENCH_DIR, "pins.txt")) as f:
        for line in f:
            parts = line.split()
            if parts and not parts[0].startswith("#"):
                pins[(parts[0], int(parts[1]))] = dict(
                    kv.split("=", 1) for kv in parts[2:])
    for w in names:
        r = subprocess.run([binary, "--workload", w, "--seed", "1",
                            "--reference-only"],
                           capture_output=True, text=True, timeout=300)
        got = r.stdout.split()[-1].split("=", 1)[1] if r.returncode == 0 else None
        want = pins.get((w, 1), {}).get("hash")
        print("pin %-16s mutation-off hash %s, pinned %s" % (w, got, want))
        if got is None or want is None or int(got, 16) != int(want, 16):
            problems.append("%s: pinned hash is not the mutation-off output" % w)

    # 2. Both modes print exactly the declared metrics, outputs are correct
    #    (the default seed also checks the pinned exact counters), and the
    #    trace file is Chrome trace-event JSON.
    layers = {}
    for w in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, res = run_bench(binary, w, 1, 1, trace)
            for line in lines[:-1]:
                if line.startswith(("FAILURE", "latency", "config", "trace")):
                    print("%s/trace%d: %s" % (w, trace, line))
            declared = {m["name"]: m["unit"] for m in manifest[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != declared:
                problems.append("%s trace %d: metrics differ from BENCHMARK.json"
                                % (w, trace))
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append("%s trace %d: incorrect result" % (w, trace))
            if trace:
                layers[w] = {k: v["value"] for k, v in res["metrics"].items()}
                path = os.path.join(build_dir(), "traces", "%s-seed1.json" % w)
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                if not events or any(e["ph"] != "X" for e in events):
                    problems.append("%s: malformed trace file" % w)

    # 3. The separation WORKLOADS.md predicts, on the reference window.
    checks = [
        ("heap.gc_count > 0 on jbb2005", layers["jbb2005"]["heap.gc_count"] > 0),
        ("heap.gc_count == 0 on salarydb",
         layers["salarydb"]["heap.gc_count"] == 0),
        ("safepoint.rendezvous > 0 only on warehouses_mt",
         all((layers[w]["safepoint.rendezvous"] > 0) == (w == "warehouses_mt")
             for w in names)),
        ("compiles inside the measured phase on salarydb_online",
         layers["salarydb_online"]["compiler.compiles_opt2"] > 0
         and layers["salarydb_online"]["online.activation_cycle"] > 0),
        ("no compiles inside the measured phase on salarydb",
         sum(layers["salarydb"][k] for k in (
             "compiler.compiles_opt0", "compiler.compiles_opt1",
             "compiler.compiles_opt2", "compiler.special_compiles")) == 0),
    ]
    for name, ok in checks:
        print("separation: %-55s %s" % (name, "ok" if ok else "FAILED"))
        if not ok:
            problems.append("separation: " + name)
    for p in problems:
        print("SELFTEST FAILURE: " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    binary = build()
    if a.selftest:
        sys.exit(selftest(binary))
    if not a.workload:
        fail("--workload is required")
    lines, _ = run_bench(binary, a.workload, a.seed, a.seconds, a.trace)
    print("\n".join(lines))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
