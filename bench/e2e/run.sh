#!/usr/bin/env bash
# Runs every benchmark workload, one process each, and prints every metric
# by name with its unit. Builds nothing: it runs the cpm_benchmark binary
# that `python3 bench/e2e/run.py ...` (or a cmake build of bench/e2e) left in
# $CARGO_TARGET_DIR/cpm_e2e (default .bench_build/cpm_e2e), or the binary
# named by $CPM_E2E_BIN.
#
#   bench/e2e/run.sh [--trace] [--seed N] [--seconds S] [--threads T]
#                    [--scale full|smoke]
#
# Untraced (default): the end-to-end metrics of all five workloads.
# --trace: each workload once under tracing, printing its per-layer table
# and writing trace_<workload>.json next to the binary.
# Exits non-zero when any workload fails its correctness checks.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$target" = /* ]] || target="$root/$target"
bin="${CPM_E2E_BIN:-$target/cpm_e2e/cpm_benchmark}"

trace=0
seed=1
seconds=20
extra=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --trace) trace=1; shift ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --threads|--scale) extra+=("$1" "$2"); shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [[ ! -x "$bin" ]]; then
  echo "run.sh: $bin not found; build it first, e.g." >&2
  echo "  python3 bench/e2e/run.py --workload chip_long --scale smoke --seconds 0" >&2
  exit 2
fi
tracedir="$(dirname "$bin")/traces"
mkdir -p "$tracedir"

status=0
for workload in chip_long chip_control fleet fleet_short sweep; do
  echo "=== $workload ==="
  out="$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
          --trace "$trace" --trace-dir "$tracedir" "${extra[@]}")" || {
    echo "run.sh: $workload exited with an error" >&2
    status=1
    continue
  }
  printf '%s\n' "$out" | grep -v '^# detail ' | sed '$d'
  if ! printf '%s\n' "$out" | tail -n 1 | grep -q '"correct":true'; then
    echo "run.sh: $workload failed its correctness checks" >&2
    status=1
  fi
done
exit "$status"
