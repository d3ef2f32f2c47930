#!/usr/bin/env bash
# Runs every figure/table bench and reports which shape checks failed. Each
# build/bench/bench_* binary regenerates one paper table or figure and exits
# non-zero when its shape check fails; bench_ext_cluster also runs a second
# time in its --short (dispatch-bound) mode. Speed is measured elsewhere:
# see BENCHMARK.json and bench/e2e/README.md.
#
# usage: scripts/bench_all.sh [BUILD_DIR]
#   BUILD_DIR  cmake build tree containing bench/ binaries (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "bench_all: no bench binaries under $BUILD_DIR/bench (build first)" >&2
  exit 1
fi

failures=0
ran=0
run() {
  echo "== $*"
  local status=0
  "$@" > /dev/null || status=$?
  if [ "$status" -ne 0 ]; then
    echo "   FAILED (exit $status)" >&2
    failures=$((failures + 1))
  fi
  ran=$((ran + 1))
}

for bin in "$BUILD_DIR"/bench/bench_*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  if [ "$(basename "$bin")" = "bench_overhead_micro" ]; then
    # google-benchmark target: keep the sweep quick.
    run "$bin" --benchmark_min_time=0.05
  else
    run "$bin"
  fi
done
if [ -x "$BUILD_DIR/bench/bench_ext_cluster" ]; then
  run "$BUILD_DIR/bench/bench_ext_cluster" --short
fi

echo
echo "bench_all: ran $ran benches, $failures failures"
[ "$failures" -eq 0 ]
