#!/usr/bin/env bash
# Runs every figure/table bench and reports which shape checks failed. Each
# bench binary regenerates one paper table or figure and exits non-zero
# when its shape check fails; bench_ext_cluster also runs a second time in
# its --short (dispatch-bound) mode. Speed is measured elsewhere: see
# BENCHMARK.json and bench/e2e/README.md.
#
# The benches run are the targets CMake defines (BUILD_DIR/bench/
# bench_targets.txt, written at configure time), not whatever bench_* files
# the build tree holds: a binary of a since-deleted target is not run, and
# a listed target without a binary (not built) fails the sweep.
#
# usage: scripts/bench_all.sh [BUILD_DIR]
#   BUILD_DIR  cmake build tree containing bench/ binaries (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
LIST="$BUILD_DIR/bench/bench_targets.txt"

if [ ! -f "$LIST" ]; then
  echo "bench_all: no bench target list at $LIST (configure and build first)" >&2
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

while IFS= read -r name; do
  [ -n "$name" ] || continue
  bin="$BUILD_DIR/bench/$name"
  if [ ! -f "$bin" ] || [ ! -x "$bin" ]; then
    echo "== $name" >&2
    echo "   FAILED (target listed by CMake but no binary: build it)" >&2
    failures=$((failures + 1))
    ran=$((ran + 1))
    continue
  fi
  case "$name" in
    bench_overhead_micro)
      # google-benchmark target: keep the sweep quick.
      run "$bin" --benchmark_min_time=0.05 ;;
    bench_ext_cluster)
      run "$bin"
      run "$bin" --short ;;
    *)
      run "$bin" ;;
  esac
done < "$LIST"

echo
echo "bench_all: ran $ran benches, $failures failures"
[ "$failures" -eq 0 ]
