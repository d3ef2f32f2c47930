#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit against runs of a change.

    python3 bench/e2e/compare.py [--benchmark BENCHMARK.json] PARENT... -- CHANGE...

Each file holds the saved stdout of cpm_benchmark runs (from run.py or
run.sh); every "# detail" line in it is one run. The i-th parent run of a
workload is paired with the i-th change run of the same workload, so run
the two sides alternately (parent first on odd pairs, change first on even
ones) with identical settings and seeds, at least ten pairs. Per workload it
also reports in how many pairs the output digests agree.

For every workload and every metric BENCHMARK.json names, it prints each
side's median, quartiles and run count, the change/parent ratio with its
base, the fraction of pairs the change wins (ties count for neither), and a
verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (or, for per-layer metrics, which have no
              bound, the mirror image of "improved");
  unresolved  the parent's own spread is wider than the bound and not every
              change run beats every parent run;
  unchanged   otherwise.

Exits 1 when any end-to-end metric is worse, else 0.
"""

import json
import pathlib
import statistics
import sys

DETAIL = "# detail "


def load_runs(paths):
    """workload -> list of {metric: value} in file order; each run also
    carries its output digest under the key "digest"."""
    runs = {}
    for path in paths:
        for line in pathlib.Path(path).read_text().splitlines():
            if not line.startswith(DETAIL):
                continue
            detail = json.loads(line[len(DETAIL):])
            values = {k: v["value"] for k, v in detail["metrics"].items()}
            values["digest"] = detail["digest"]
            runs.setdefault(detail["workload"], []).append(values)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    losses = sum(better(p, c, direction) for p, c in pairs)
    win_frac = wins / len(pairs) if pairs else 0.0
    loss_frac = losses / len(pairs) if pairs else 0.0
    gap = abs(c_med - p_med)
    iqr = p_q3 - p_q1
    if win_frac >= 0.9 and better(c_med, p_med, direction) and gap > iqr:
        return win_frac, "improved"
    if bound is None:
        if loss_frac >= 0.9 and better(p_med, c_med, direction) and gap > iqr:
            return win_frac, "worse"
        return win_frac, "unchanged"
    base = abs(p_med) if p_med else 1.0
    if better(p_med, c_med, direction) and gap / base > bound:
        return win_frac, "worse"
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if iqr / base > bound and not all_better:
        return win_frac, "unresolved"
    return win_frac, "unchanged"


def main():
    argv = sys.argv[1:]
    spec_path = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    if argv[:1] == ["--benchmark"] and len(argv) > 1:
        spec_path = pathlib.Path(argv[1])
        argv = argv[2:]
    if "--" not in argv or argv[0] in ("-h", "--help"):
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parent_files, change_files = argv[:split], argv[split + 1:]
    if not parent_files or not change_files:
        print("compare.py: need at least one parent and one change file",
              file=sys.stderr)
        return 2

    spec = json.loads(spec_path.read_text())
    metrics = [(m, m.get("bound")) for m in spec["end_to_end"]]
    metrics += [(m, None) for m in spec["per_layer"]]
    parent_runs = load_runs(parent_files)
    change_runs = load_runs(change_files)

    any_worse = False
    header = (f"{'workload':12} {'metric':40} {'unit':6} {'parent median [q1, q3] n':36}"
              f" {'change median [q1, q3] n':36} {'change/parent (base)':30}"
              f" {'wins':>5}  verdict")
    print(header)
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p_runs, c_runs = parent_runs[workload], change_runs[workload]
        pairs = list(zip(p_runs, c_runs))
        same = sum(p["digest"] == c["digest"] for p, c in pairs)
        print(f"{workload:12} output digests identical in {same}/{len(pairs)}"
              " pairs (a change meant only to be faster keeps them all)")
        for m, bound in metrics:
            name = m["name"]
            parent = [r[name] for r in p_runs if name in r]
            change = [r[name] for r in c_runs if name in r]
            if not parent or not change:
                continue
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            win_frac, result = verdict(parent, change, m["better"], bound)
            ratio = f"{c_med / p_med:.4f}" if p_med else "n/a"
            base = f"{ratio} ({p_med:.6g} {m['unit']})"
            print(f"{workload:12} {name:40} {m['unit']:6}"
                  f" {f'{p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}] {len(parent)}':36}"
                  f" {f'{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] {len(change)}':36}"
                  f" {base:30} {win_frac:5.2f}  {result}")
            any_worse |= bound is not None and result == "worse"
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
