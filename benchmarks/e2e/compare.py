"""Compare result files of two commits, metric by metric, per workload.

Each end-to-end metric gets its median and quartiles on both sides.  A
change is "worse" when its median is worse than the parent's by more
than the metric's bound, "better" when it is better by more than the
bound; a metric whose run-to-run spread (quartile distance over median)
exceeds its bound on either side is "unresolved" unless every change run
beats every parent run.

A metric the seed fixes exactly (:data:`PAIRED`) is compared seed by seed
instead: any seed on which the change is worse makes it "worse", whatever
the bound, since the bound only has to cover the spread between seeds.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Optional

__all__ = ["PAIRED", "load", "verdict", "paired_verdict", "main"]

#: metrics identical across runs of one seed
PAIRED = ("exec_match_share",)


def load(paths) -> dict[str, list[dict]]:
    """Result records by workload (files from ``run.py --json``)."""
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for path in paths:
        with open(path) as handle:
            payload = json.load(handle)
        for record in payload if isinstance(payload, list) else [payload]:
            by_workload[record["workload"]].append(record)
    return by_workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _spread(values: list[float]) -> float:
    q1, median, q3 = _quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    if max(_spread(parent), _spread(change)) > bound:
        if min(sign * v for v in change) > max(sign * v for v in parent):
            return "better"
        return "unresolved"
    base = statistics.median(parent)
    moved = sign * (statistics.median(change) - base) / abs(base) if base else 0.0
    if moved < -bound:
        return "worse"
    if moved > bound:
        return "better"
    return "unchanged"


def paired_verdict(parent: dict, change: dict, better: str) -> Optional[str]:
    """Seed-by-seed verdict over the seeds both sides ran (None if none)."""
    seeds = parent.keys() & change.keys()
    if not seeds:
        return None
    sign = 1.0 if better == "higher" else -1.0
    moves = [sign * (change[seed] - parent[seed]) for seed in seeds]
    if min(moves) < 0:
        return "worse"
    if max(moves) > 0:
        return "better"
    return "unchanged"


def main(spec: dict, parent_paths, change_paths) -> int:
    parent, change = load(parent_paths), load(change_paths)
    worse = 0
    for workload in sorted(set(parent) | set(change)):
        before, after = parent.get(workload, []), change.get(workload, [])
        print(f"== {workload}: {len(before)} parent run(s), {len(after)} change run(s)")
        if not before or not after:
            print("   missing on one side")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = [record["end_to_end"][name] for record in before]
            new = [record["end_to_end"][name] for record in after]
            result = verdict(old, new, metric["better"], metric["bound"])
            if name in PAIRED:
                by_seed = [{record["seed"]: record["end_to_end"][name] for record in records}
                           for records in (before, after)]
                result = paired_verdict(*by_seed, metric["better"]) or result
            worse += result == "worse"
            oq1, om, oq3 = _quartiles(old)
            nq1, nm, nq3 = _quartiles(new)
            print(f"   {name:<18} parent {om:10.4g} [{oq1:.4g}, {oq3:.4g}]  "
                  f"change {nm:10.4g} [{nq1:.4g}, {nq3:.4g}] {metric['unit']:<5} "
                  f"bound {metric['bound']:.0%}  {result}")
        for side, records in (("parent", before), ("change", after)):
            attempted = sum(record["attempted"] for record in records)
            failed = sum(record["failed"] for record in records)
            print(f"   failed {side}: {failed}/{attempted}")
    return 1 if worse else 0
