#!/bin/sh
# Engine performance trajectory: build, run the engine micro kernels and
# the IR-vs-threaded-code executor pairs, and leave machine-readable
# results in bench/out/BENCH_engine.json (scratch output, not tracked;
# the curated ledger lives in /BENCH_engine.json). End-to-end numbers
# come from bench/e2e (see bench/e2e/README.md).
#
#   scripts/bench.sh            full run (stable numbers, ~10 s)
#   scripts/bench.sh --smoke    1 iteration of everything (CI bit-rot guard)
set -eu
cd "$(dirname "$0")/.."

dune build bench/perfbench.exe
mkdir -p bench/out
_build/default/bench/perfbench.exe "$@" -o bench/out/BENCH_engine.json
