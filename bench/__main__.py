"""Command line of the benchmark (``python3 -m bench``)."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import List

from bench import host
from bench.catalog import (
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    SIZES,
    WORKLOADS,
    manifest,
)
from bench.digest import GOLDEN_PATH, GOLDEN_SEED, load_golden


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__,
        epilog="also: python3 -m bench compare A.json B.json | manifest")
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run this one workload and print one JSON line "
                             "(default: run them all, write a result file)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"seconds one run measures "
                             f"(default {RUN_SECONDS}; 1 with --quick)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="the traced pass: per-layer metrics; with all "
                             "workloads it follows the untraced pass")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, same code paths and names")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload (all-workloads mode)")
    parser.add_argument("--out", help="result file (all-workloads mode)")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"pin this run's digests (seed {GOLDEN_SEED})")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    return parser


def _run_child(args, workload: str, trace: int, directory: str) -> dict:
    """One run in its own process; returns what it wrote to ``--detail``."""
    detail = os.path.join(directory, "detail.json")
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--detail", detail]
    if args.quick:
        command.append("--quick")
    subprocess.run(command, cwd=host.ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=900)
    with open(detail) as handle:
        return json.load(handle)


def _summary(metric, values: List[float]) -> dict:
    return {
        "unit": metric.unit, "better": metric.better, "bound": metric.bound,
        "kind": metric.kind, "values": values,
        "median": statistics.median(values),
        "min": min(values), "max": max(values), "n": len(values),
    }


def _write_golden(mode: str, digests: dict) -> None:
    """Replace the committed digests of ``mode`` (``{}`` = none pinned)."""
    golden = load_golden()
    golden[mode] = digests
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"golden: {os.path.relpath(GOLDEN_PATH)} ({len(digests)} pinned)")


def run_all(args) -> int:
    os.makedirs(host.OUT_DIR, exist_ok=True)
    if args.write_golden:
        if args.seed != GOLDEN_SEED:
            print(f"golden digests are for seed {GOLDEN_SEED}",
                  file=sys.stderr)
            return 2
        _write_golden(args.mode, {})  # nothing stale to compare against
    result = {
        "schema": 1, "host": host.describe(), "seed": args.seed,
        "mode": args.mode, "run_seconds": args.seconds,
        "sizes": SIZES[args.mode], "jobs": host.jobs(), "workloads": {},
    }
    failed_total = 0
    with tempfile.TemporaryDirectory(dir=host.OUT_DIR) as directory:
        for workload in WORKLOADS:
            runs = [_run_child(args, workload.name, 0, directory)
                    for _ in range(args.repeat)]
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            entry = {
                "why": workload.why, "digest": runs[0]["digest"],
                "attempted": attempted, "failed": failed,
                "failed_frac": failed / attempted,
                "end_to_end": {
                    m.name: _summary(m, [r["values"][m.name] for r in runs])
                    for m in END_TO_END
                },
                "samples": [r["samples"] for r in runs],
                "host": [r["host"] for r in runs],
            }
            print(f"{workload.name}: failed {failed}/{attempted}")
            for m in END_TO_END:
                row = entry["end_to_end"][m.name]
                print(f"  {m.name:<20}{row['median']:>14.4f} {m.unit:<10}"
                      f"min {row['min']:.4f} max {row['max']:.4f} "
                      f"n={row['n']}")
            if args.trace:
                traced = _run_child(args, workload.name, 1, directory)
                failed += traced["failed"]
                entry["trace_digest"] = traced["digest"]
                entry["per_layer"] = {
                    m.name: {"unit": m.unit, "better": m.better,
                             "kind": m.kind,
                             "value": traced["values"][m.name]}
                    for m in PER_LAYER
                }
                for m in PER_LAYER:
                    value = traced["values"][m.name]
                    if value:
                        print(f"  {m.name:<34}{value:>16.6g} {m.unit}")
            failed_total += failed
            result["workloads"][workload.name] = entry
    out = args.out or os.path.join(
        host.OUT_DIR,
        f"result-{result['host']['commit']}-seed{args.seed}-{args.mode}.json")
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(f"result: {os.path.relpath(out)}")
    if args.write_golden:
        _write_golden(args.mode, {name: entry["digest"] for name, entry
                                  in result["workloads"].items()})
    return 1 if failed_total else 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    if argv[:1] == ["manifest"]:
        print(json.dumps(manifest(), indent=2))
        return 0
    args = _parser().parse_args(argv)
    args.mode = "quick" if args.quick else "full"
    if args.seconds is None:
        args.seconds = 1 if args.quick else RUN_SECONDS
    if args.workload is None:
        return run_all(args)
    from bench import runner

    if args.scratch is None:
        return runner.run_single(args)
    if args.setup_only:
        return runner.setup_only(args)
    return runner.run_child(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
