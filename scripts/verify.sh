#!/usr/bin/env bash
# Full verification: lint, release build (warnings-as-errors, negative
# compilation harness at configure), tier-1 tests, a bounded randomized fuzz
# campaign, then the sanitizer passes (ASan+UBSan tests, TSan over the
# thread-pool users). This is the gate every PR must pass.
#
# Usage: scripts/verify.sh [--fast]
#   --fast  skip the sanitizer passes (lint + release tests + fuzz smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "== lint: doc references =="
python3 scripts/check_docs.py

echo "== lint: cpm_lint (determinism, parallel-capture, fp-repro, layering, units) =="
cmake --preset default >/dev/null
cmake --build --preset default --target cpm_lint -j"$(nproc)"
./build/tools/cpm_lint/cpm_lint --root . \
  --baseline tools/cpm_lint/baseline.txt

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== lint: clang-tidy =="
  cmake --build --preset default --target tidy
else
  echo "== lint: clang-tidy not installed, skipping =="
fi

echo "== release build + tier-1 tests (CPM_WERROR=ON) =="
# Configure also runs tests/static/: the units negative-compilation harness.
cmake --preset default >/dev/null
cmake --build --preset default -j"$(nproc)"
ctest --preset default

echo "== fuzz smoke (randomized differential campaign, ~30 s budget) =="
# A fresh seed per calendar day keeps coverage moving while staying
# reproducible: failures print an exact --seed/--replay command.
SEED=$(date +%Y%m%d)
./build/tests/fuzz_sim --scenarios 400 --seed "$SEED"

if [[ "$FAST" == "0" ]]; then
  echo "== ASan+UBSan build + tier-1 tests =="
  cmake --preset asan-ubsan >/dev/null
  cmake --build --preset asan-ubsan -j"$(nproc)"
  ctest --preset asan-ubsan

  echo "== TSan: thread pool + parallel sweeps + metrics/trace + fuzz smoke =="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j"$(nproc)" \
    --target bench_fig13_island_size bench_fig17_interval_sensitivity \
             fuzz_sim util_tests core_tests
  ./build-tsan/bench/bench_fig13_island_size
  ./build-tsan/bench/bench_fig17_interval_sensitivity
  # Concurrent publishers into the metrics registry and the per-thread trace
  # buffers, plus the persistent pool's park/wake/shutdown protocol -- the
  # concurrency layer's data-race gate.
  ./build-tsan/tests/util_tests \
    --gtest_filter='MetricsRegistry.*:Trace.*:Parallel*:ThreadPool*:CpmThreadsEnv.*'
  # Cluster runs on the worker path, on one worker, and nested inside a
  # pool task.
  ./build-tsan/tests/core_tests --gtest_filter='Cluster.*'
  ./build-tsan/tests/fuzz_sim --scenarios 60 --seed "$SEED"
fi

echo "verify: all checks passed"
