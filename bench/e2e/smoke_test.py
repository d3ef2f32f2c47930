#!/usr/bin/env python3
"""Smoke test of cpm_benchmark (ctest: cpm_benchmark_smoke).

    python3 smoke_test.py CPM_BENCHMARK BENCHMARK.json

Runs every workload at --scale smoke: twice untraced with one seed, once
with another seed, and once traced. Checks that the result line has exactly
the contract keys, that every metric BENCHMARK.json names is present with
its unit and a finite value, that the same seed gives identical simulated
metrics and digests, and that a different seed changes the digest. Trace
files go to the working directory.
"""

import json
import math
import os
import subprocess
import sys
import time

SIMULATED = ("sim_bips", "budget_err_pct")


def run(binary, workload, seed, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--scale", "smoke", "--trace-dir", os.getcwd()],
        capture_output=True, text=True, check=True).stdout.splitlines()
    detail = next(l for l in out if l.startswith("# detail "))
    return json.loads(out[-1]), json.loads(detail[len("# detail "):])


def check_metrics(errors, where, result, specs):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        errors.append(f"{where}: not correct or nothing attempted: {result}")
    for spec in specs:
        metric = result["metrics"].get(spec["name"])
        if metric is None:
            errors.append(f"{where}: missing {spec['name']}")
        elif metric.get("unit") != spec["unit"]:
            errors.append(f"{where}: {spec['name']} unit {metric.get('unit')}")
        elif not math.isfinite(metric.get("value", math.nan)):
            errors.append(f"{where}: {spec['name']} not finite")


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    errors = []
    start = time.monotonic()
    for workload in (w["name"] for w in spec["workloads"]):
        first, first_detail = run(binary, workload, 11, 0)
        again, again_detail = run(binary, workload, 11, 0)
        other, other_detail = run(binary, workload, 12, 0)
        traced, _ = run(binary, workload, 11, 1)
        check_metrics(errors, f"{workload} untraced", first, spec["end_to_end"])
        check_metrics(errors, f"{workload} traced", traced, spec["per_layer"])
        if first_detail["digest"] != again_detail["digest"]:
            errors.append(f"{workload}: same seed, different digests")
        for name in SIMULATED:
            if first["metrics"][name] != again["metrics"][name]:
                errors.append(f"{workload}: same seed, different {name}")
        if first_detail["digest"] == other_detail["digest"]:
            errors.append(f"{workload}: another seed kept the digest")
    print(f"smoke: {len(spec['workloads'])} workloads in "
          f"{time.monotonic() - start:.1f} s")
    for error in errors:
        print("FAIL", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
