#!/usr/bin/env python3
"""Compare two sets of cedbench results, metric by metric and workload by workload.

    python3 cedbench/compare.py BASE NEW

BASE and NEW are each a result file or a directory of them (as written by
cedbench/run.py, one file per run). Runs of one workload and trace mode are
pooled; each side's median is compared against the bound that BENCHMARK.json
fixes for the metric. Verdicts:

  improved / REGRESSED  the median moved by more than the bound
  unchanged             it moved less, and BASE's run-to-run spread
                        (interquartile range over median) is within the
                        bound, or every NEW run is better than every BASE run
  unresolved            it moved less, but the spread is wider than the
                        bound, so the move cannot be told from noise

Per-layer metrics have no bound; their relative change is listed for
reading, without a verdict. Exits 1 if any metric REGRESSED.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if "workload" not in r or "metrics" not in r:
            continue
        runs.setdefault((r["workload"], int(r["trace"])), []).append(r)
    if not runs:
        sys.exit(f"compare: no result files in {path}")
    return runs


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs
            if name in r["metrics"] and r["metrics"][name]["value"] is not None]


def spread(vals):
    """Interquartile range as a share of the median (0 for one run)."""
    if len(vals) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return abs(q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    b, n = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (n - b) / abs(b) if b else 0.0
    if better == "higher":
        all_better = min(new) > max(base)
        all_worse = max(new) < min(base)
    else:
        all_better = max(new) < min(base)
        all_worse = min(new) > max(base)
    noisy = spread(base) > bound
    if gain < -bound and (not noisy or all_worse):
        return gain, "REGRESSED"
    if gain > bound and (not noisy or all_better):
        return gain, "improved"
    if not noisy or all_better:
        return gain, "unchanged"
    return gain, "unresolved"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        b_runs, n_runs = base[key], new[key]
        print(f"\n{workload} (trace {trace}): {len(b_runs)} base runs, "
              f"{len(n_runs)} new runs")
        print(f"  {'metric':<28} {'base':>12} {'new':>12} {'gain':>8} "
              f"{'spread':>7} {'bound':>6}  verdict")
        table = bounds if trace == 0 else layers
        for name, m in table.items():
            bv, nv = values(b_runs, name), values(n_runs, name)
            if not bv or not nv:
                continue
            b, n = statistics.median(bv), statistics.median(nv)
            if "bound" in m:
                gain, v = verdict(bv, nv, m["better"], m["bound"])
                regressed |= v == "REGRESSED"
                bound = f"{m['bound']:6.2f}"
            else:
                sign = 1.0 if m["better"] == "higher" else -1.0
                gain = sign * (n - b) / abs(b) if b else 0.0
                v, bound = "", "     -"
            print(f"  {name:<28} {b:12.6g} {n:12.6g} {100 * gain:+7.2f}% "
                  f"{100 * spread(bv):6.2f}% {bound}  {v}")
    for key in sorted(set(base) ^ set(new)):
        print(f"\n{key[0]} (trace {key[1]}): only in "
              f"{'base' if key in base else 'new'}; not compared")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
