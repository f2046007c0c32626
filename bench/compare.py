"""Compare two result sets written by ``run.py --record``.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

For every workload and end-to-end metric, prints each side's median and
quartiles, the share of paired runs the change wins (pairs match by seed,
else by order; ties count for neither side), and a verdict:

- improved: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's own quartile spread;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: a side's quartile spread, as a share of its median, is
  wider than the bound, and not every change run beats every parent run;
- no worse: otherwise.

It also prints each side's median reference-kernel time (ref_ms): a
change that moves it is interfering with the measurement.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

CONTRACT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path: str) -> dict[str, list[dict]]:
    """Untraced records of a result file, grouped by workload."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs[rec["workload"]].append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list[dict], change: list[dict], name: str) -> list[tuple[float, float]]:
    by_seed = {r["seed"]: r for r in parent}
    if all(r["seed"] in by_seed for r in change):
        return [(by_seed[r["seed"]]["metrics"][name]["value"], r["metrics"][name]["value"]) for r in change]
    return [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in zip(parent, change)]


def verdict(a: list[float], b: list[float], paired, bound: float, lower: bool) -> tuple[str, float]:
    sign = 1.0 if lower else -1.0

    def better(x, y):  # x better than y
        return sign * (x - y) < 0

    wins = sum(1 for pa, pb in paired if better(pb, pa))
    share = wins / len(paired) if paired else 0.0
    qa, qb = quartiles(a), quartiles(b)
    worse_by = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    if share >= 0.9 and worse_by < 0 and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "improved", share
    if worse_by > bound:
        return "worse", share
    if spread > bound and not all(better(x, y) for x in b for y in a):
        return "unresolved", share
    return "no worse", share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(CONTRACT, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    for workload in sorted(set(parent) & set(change)):
        a_runs, b_runs = parent[workload], change[workload]
        ref = [statistics.median(r["diagnostics"]["ref_ms"] for r in runs) for runs in (a_runs, b_runs)]
        print(f"{workload}: {len(a_runs)} parent runs, {len(b_runs)} change runs; "
              f"ref_ms {ref[0]:.2f} vs {ref[1]:.2f}")
        for side, runs in (("parent", a_runs), ("change", b_runs)):
            print(f"  {side} ops_failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}, "
                  f"correct {all(r['correct'] for r in runs)}")
        for m in metrics:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            word, share = verdict(a, b, pairs(a_runs, b_runs, name), m["bound"], m["better"] == "lower")
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {name:12s} parent {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                  f"change {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {m['unit']}  "
                  f"wins {share:.0%}  bound {m['bound']:.0%}  {word}")
    missing = sorted(set(parent) ^ set(change))
    if missing:
        sys.stderr.write(f"workloads on one side only: {', '.join(missing)}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
