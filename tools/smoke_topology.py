#!/usr/bin/env python
"""Smoke equivalence matrix for the topology abstraction (CI gate).

Runs one small CMP workload on every registered topology (mesh, torus,
concentrated mesh) through all four engine cells - fastpath on/off x
shards 1/2 - and verifies the four runs are bit-identical per topology:
same stats counters, means, histograms and finish cycle.  ``shards=1``
is the plain single-process engine; ``shards=2`` exercises the sharded
coordinator including the torus's wraparound boundary channels.

Writes a JSON summary (``--out``, default ``out/topology_matrix.json``)
and exits non-zero on any mismatch.  No speed assertions - CI machine
speed varies; bit-identity is the gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cpu.workloads import workload_by_name  # noqa: E402
from repro.noc.topology import TOPOLOGY_CHOICES  # noqa: E402
from repro.sim.config import Variant, small_test_config  # noqa: E402
from repro.sim.shard import run_sharded  # noqa: E402
from repro.system import CmpSystem  # noqa: E402

WORKLOAD = "canneal"
VARIANT = Variant.COMPLETE_NOACK
SEED = 3
N_CORES = 16
MEASURE = 120  # instructions per core, measure-only (no warmup)


def _config(topology: str, fastpath: bool):
    config = small_test_config(N_CORES, VARIANT, seed=SEED)
    return dataclasses.replace(
        config,
        noc=dataclasses.replace(config.noc, topology=topology,
                                fastpath=fastpath),
    )


def run_cell(topology: str, fastpath: bool, n_shards: int) -> dict:
    config = _config(topology, fastpath)
    wall0 = time.perf_counter()
    if n_shards == 1:
        system = CmpSystem(config, workload_by_name(WORKLOAD))
        finish = system.run_instructions(MEASURE)
        snapshot = system.stats.snapshot()
    else:
        result = run_sharded(config, WORKLOAD, 0, MEASURE,
                             n_shards=n_shards, check=False)
        finish = result.finish_cycle
        snapshot = result.stats.snapshot()
    return {
        "topology": topology,
        "fastpath": fastpath,
        "shards": n_shards,
        "finish_cycle": finish,
        "wall_seconds": round(time.perf_counter() - wall0, 3),
        "snapshot": snapshot,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/topology_matrix.json")
    parser.add_argument("--topologies", nargs="*", default=TOPOLOGY_CHOICES,
                        choices=TOPOLOGY_CHOICES, metavar="NAME")
    args = parser.parse_args()

    report = {"workload": WORKLOAD, "variant": VARIANT.value,
              "n_cores": N_CORES, "measure": MEASURE, "cells": []}
    failures = []
    for topology in args.topologies:
        cells = [run_cell(topology, fastpath, shards)
                 for fastpath in (True, False) for shards in (1, 2)]
        reference = cells[0]
        for cell in cells:
            ok = (cell["snapshot"] == reference["snapshot"]
                  and cell["finish_cycle"] == reference["finish_cycle"])
            label = (f"{topology} fastpath={cell['fastpath']} "
                     f"shards={cell['shards']}")
            print(f"  {label:34s} finish={cell['finish_cycle']:8d}  "
                  f"{'OK' if ok else 'MISMATCH'}  "
                  f"({cell['wall_seconds']:.1f}s)")
            if not ok:
                failures.append(label)
            entry = dict(cell)
            entry.pop("snapshot")
            entry["bit_identical"] = ok
            report["cells"].append(entry)

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"written: {args.out}")
    if failures:
        print("MISMATCHED CELLS:")
        for label in failures:
            print(f"  {label}")
        return 1
    print(f"all {len(report['cells'])} cells bit-identical "
          f"({len(args.topologies)} topologies x fastpath on/off "
          f"x shards 1/2)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
