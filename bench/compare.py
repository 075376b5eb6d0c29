"""``python3 -m bench compare A.json B.json``: is B worse than A?

A is the parent, B the change; both are result files of the all-workloads
mode, best made with ``--repeat`` so each metric has several runs.  One
row per (workload, end-to-end metric):

* ``ok``          B's median is within the metric's bound of A's;
* ``regressed``   it is worse by more than the bound;
* ``unresolved``  the run-to-run spread of either side is wider than the
  bound, and B's runs are not all better than A's, so the data cannot say.

The spread is the distance between the quartiles as a share of the median
(the range, with fewer than four runs).  Outputs must agree exactly: equal
digests, equal ``model.*`` values, no failed operation.  Exit status 1 on
any regression or disagreement.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List


def spread(values: List[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> "tuple[str, float, float]":
    """(row status, share by which B's median is worse, widest spread)."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse = sign * (statistics.median(b) - base) / abs(base)
    wide = max(spread(a), spread(b))
    if wide > bound:
        all_better = (max(b) < min(a)) if better == "lower" \
            else (min(b) > max(a))
        return ("ok" if all_better else "unresolved"), worse, wide
    return ("regressed" if worse > bound else "ok"), worse, wide


def compare(parent: dict, change: dict) -> int:
    problems = 0
    for field in ("seed", "mode", "sizes"):
        if parent.get(field) != change.get(field):
            print(f"not comparable: {field} differs "
                  f"({parent.get(field)!r} vs {change.get(field)!r})")
            return 1
    print(f"{'workload':<16}{'metric':<20}{'parent':>12}{'change':>12}"
          f"{'worse by':>10}{'spread':>8}{'bound':>7}  status")
    for name, old in parent["workloads"].items():
        new = change["workloads"].get(name)
        if new is None:
            print(f"{name:<16}missing from the change")
            problems += 1
            continue
        for metric, row in old["end_to_end"].items():
            a, b = row["values"], new["end_to_end"][metric]["values"]
            status, worse, wide = verdict(a, b, row["better"], row["bound"])
            problems += status == "regressed"
            print(f"{name:<16}{metric:<20}{statistics.median(a):>12.4f}"
                  f"{statistics.median(b):>12.4f}{worse:>+10.1%}"
                  f"{wide:>8.1%}{row['bound']:>7.0%}  {status}")
        checks = [("digest", old["digest"], new["digest"]),
                  ("failed", 0, new["failed"])]
        if "per_layer" in old and "per_layer" in new:
            checks.append(("trace_digest", old["trace_digest"],
                           new["trace_digest"]))
            checks += [
                (metric, row["value"], new["per_layer"][metric]["value"])
                for metric, row in old["per_layer"].items()
                if metric.startswith("model.")
            ]
        for label, want, got in checks:
            if want != got:
                problems += 1
                print(f"{name:<16}{label:<20}{want!s:>12.12}{got!s:>12.12}"
                      f"{'':>25}  differs")
    print("no regression" if not problems else f"{problems} problem(s)")
    return 1 if problems else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as a, open(argv[1]) as b:
        return compare(json.load(a), json.load(b))
