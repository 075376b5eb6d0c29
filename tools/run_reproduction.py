#!/usr/bin/env python
"""Full reproduction driver: regenerate every table and figure, both chip
sizes, and dump the rendered report (results land in the REPRO_CACHE store).

Usage:
    REPRO_SCALE=0.6 python tools/run_reproduction.py out/report.txt --jobs 4

The run honours REPRO_SCALE / REPRO_FULL / REPRO_CACHE / REPRO_JOBS like
the harness.  With more than one job, every simulation the report needs
is computed up front across worker processes; the rendering below then
assembles the identical results from the in-process memo.  Beside the
report it writes FIDELITY.json: one row per number of the report (entry,
cores, row, column, the paper's value or null, the measured value), with
the scale, quanta, seed, workloads and commit of the run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

from repro import config
from repro.harness import render
from repro.harness.experiment import RunSpec, default_workloads, degrades


def _commit() -> "str | None":
    """The checkout's commit (``-dirty`` if it has local changes)."""
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True,
                              cwd=os.path.dirname(os.path.abspath(__file__))
                              ).stdout.strip() or None
    except OSError:  # no git
        return None


def _dump(fidelity: dict) -> str:
    """``fidelity`` as JSON text with one row per line."""
    head = json.dumps({k: v for k, v in fidelity.items() if k != "rows"},
                      indent=1)
    rows = ",\n".join("  " + json.dumps(row) for row in fidelity["rows"])
    return head[:-2] + f',\n "rows": [\n{rows}\n ]\n}}\n'


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", default="reproduction_report.txt")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (0 = one per CPU core; "
                             "default: REPRO_JOBS or serial)")
    args = parser.parse_args(argv)

    workloads = default_workloads()
    full = default_workloads(full=True)
    entries = list(render.REPORT.values())
    # the report in print order: (entry, workloads, chip size), or a line
    plan = [(entry, workloads, None) for entry in entries if not entry.chips]
    for cores in dict.fromkeys(cores for entry in entries
                               for cores in entry.chips):
        plan += [f"=================== {cores} cores ==================="]
        plan += [(entry, workloads, cores) for entry in entries
                 if cores in entry.chips and not entry.full]
    plan += [(entry, full, cores) for entry in entries if entry.full
             for cores in entry.chips]
    sections = [item for item in plan if not isinstance(item, str)]
    specs = [spec for entry, programs, cores in sections
             for spec in render.report_specs(cores, programs, args.seed,
                                             [entry.name])]
    lines, rows = [], []

    def emit(text=""):
        print(text, flush=True)
        lines.append(text)

    t0 = time.time()
    from repro import api

    api.prefetch(specs, jobs=args.jobs, safe=degrades(),
                 echo=lambda msg: print(msg, file=sys.stderr, flush=True))

    emit(f"# Reactive Circuits reproduction report")
    emit(f"# scale={config.resolve('scale')} workloads={workloads}")
    emit()
    for item in plan:
        if isinstance(item, str):
            emit(item)
            continue
        text, cells = render.section(*item, args.seed)
        emit("## " + text)
        emit()
        rows += cells
    emit(f"# total {time.time() - t0:.0f}s")

    with open(args.output, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    # every run of the report has the default quanta, scaled
    [(measure, warmup)] = {(spec.measure_instructions,
                            spec.warmup_instructions)
                           for spec in map(RunSpec.scaled, specs)}
    fidelity = {
        "commit": _commit(), "scale": config.resolve("scale"),
        "measure_instructions": measure, "warmup_instructions": warmup,
        "seed": args.seed, "workloads": workloads, "all_workloads": full,
        "rows": rows}
    path = os.path.join(os.path.dirname(args.output), "FIDELITY.json")
    with open(path, "w") as handle:
        handle.write(_dump(fidelity))
    return 0


if __name__ == "__main__":
    sys.exit(main())
