#!/bin/sh
# Builds the repository, runs the test suite, then regenerates every table
# and figure of the paper (the same stdout as tests/data/figures.golden).
set -e
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure
build/bench/dchm_figures
