#!/usr/bin/env python
"""Full reproduction driver: regenerate every table and figure, both chip
sizes, and dump the rendered report (results land in the REPRO_CACHE store).

Usage:
    REPRO_SCALE=0.6 python tools/run_reproduction.py out/report.txt --jobs 4

The run honours REPRO_SCALE / REPRO_FULL / REPRO_CACHE / REPRO_JOBS like
the harness.  With more than one job, every simulation the report needs
is computed up front across worker processes; the rendering below then
assembles the identical results from the in-process memo.
"""

import argparse
import sys
import time

from repro import config
from repro.harness import figures, render, tables
from repro.harness.experiment import default_workloads, degrades


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
    lines = []

    def emit(text=""):
        print(text, flush=True)
        lines.append(text)

    t0 = time.time()
    from repro import api

    api.prefetch(
        figures.report_specs(16, workloads, args.seed)
        + figures.report_specs(64, workloads, args.seed)
        + figures.report_specs(64, full, args.seed, ["fig10"]),
        jobs=args.jobs, safe=degrades(),
        echo=lambda msg: print(msg, file=sys.stderr, flush=True),
    )

    emit(f"# Reactive Circuits reproduction report")
    emit(f"# scale={config.resolve('scale')} workloads={workloads}")
    emit()

    emit("## Table 6 - router area savings")
    emit(render.render_table6(tables.table6(), tables.TABLE6_PAPER))
    emit()

    for cores in (16, 64):
        emit(f"=================== {cores} cores ===================")
        emit(f"## Table 1 - message mix ({cores} cores)")
        emit(render.render_table1(tables.table1(workloads, cores, args.seed),
                                  tables.TABLE1_PAPER))
        emit()
        emit(f"## Table 5 - reservation ordinals ({cores} cores)")
        emit(render.render_table5(tables.table5(workloads, cores, args.seed),
                                  tables.TABLE5_PAPER))
        emit()
        emit(f"## Figure 6 - reply outcomes ({cores} cores)")
        emit(render.render_figure6(figures.figure6(workloads, cores, args.seed)))
        emit()
        emit(f"## Figure 7 - message latency ({cores} cores)")
        emit(render.render_figure7(figures.figure7(workloads, cores, args.seed)))
        emit()
        emit(f"## Figure 8 - normalised network energy ({cores} cores)")
        emit(render.render_ratio_figure(
            figures.figure8(workloads, cores, args.seed), "energy vs baseline"))
        emit()
        emit(f"## Figure 9 - speedup ({cores} cores)")
        emit(render.render_ratio_figure(
            figures.figure9(workloads, cores, args.seed), "speedup"))
        emit()
        emit(f"[{time.time() - t0:.0f}s elapsed]")

    emit("## Figure 10 - per-application speedup "
         "(64 cores, SlackDelay1+NoAck, all workloads)")
    emit(render.render_figure10(figures.figure10(full, 64, args.seed)))
    emit()
    emit(f"# total {time.time() - t0:.0f}s")

    with open(args.output, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
