"""Command-line entry point: regenerate any table or figure of the paper.

Usage::

    python -m repro.harness table1 [--cores 64] [--full]
    python -m repro.harness fig9 --cores 16 --jobs 4
    python -m repro.harness all --jobs 0      # one worker per CPU core
    python -m repro.harness table1 --check    # audit invariants while running
    python -m repro.harness check             # monitored clean variant sweep
    python -m repro.harness inject            # seeded fault-injection campaign
    python -m repro.harness chaos             # process-level chaos campaign:
                                              # kill/wedge/corrupt, prove
                                              # recovery is bit-identical
    python -m repro.harness trace --workload fft    # telemetry: Perfetto
                                              # trace + metric time series
    python -m repro.harness profile           # kernel wall-time profile
    python -m repro.harness topology          # BASELINE vs Complete_NoAck
                                              # per topology (mesh/torus/
                                              # cmesh comparison figure)
    python -m repro.harness check --topology  # static topology self-check
                                              # (adjacency + route tables)
    python -m repro.harness serve --socket /tmp/repro.sock --workers 4
                                              # job daemon (repro.service);
                                              # point clients at it with
                                              # REPRO_SERVICE=/tmp/repro.sock
    python -m repro.harness env               # print the effective resolved
                                              # configuration (value + source)

Every ``REPRO_*`` environment variable is listed by ``--help`` (generated
from the :mod:`repro.config` registry); ``env`` shows the resolved values.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from repro import config as repro_config
from repro.harness import figures, render, tables
from repro.harness.experiment import (
    RunSpec,
    crash_dir,
    default_workloads,
    degrades,
    last_telemetry,
    run_experiment,
)
from repro.sim.config import Variant

if TYPE_CHECKING:
    from repro.telemetry import TelemetryConfig


def _workloads(args) -> list:
    return default_workloads(full=args.full or None)


def cmd_table1(args) -> None:
    measured = tables.table1(_workloads(args), args.cores, args.seed)
    print(f"Table 1 - message mix ({args.cores} cores, baseline)")
    print(render.render_table1(measured, tables.TABLE1_PAPER))


def cmd_table5(args) -> None:
    measured = tables.table5(_workloads(args), args.cores, args.seed)
    print(f"Table 5 - circuit reservation ordinals ({args.cores} cores)")
    print(render.render_table5(measured, tables.TABLE5_PAPER))


def cmd_table6(args) -> None:
    measured = tables.table6()
    print("Table 6 - router area savings")
    print(render.render_table6(measured, tables.TABLE6_PAPER))


def cmd_fig6(args) -> None:
    data = figures.figure6(_workloads(args), args.cores, args.seed)
    print(f"Figure 6 - reply outcomes ({args.cores} cores)")
    print(render.render_figure6(data))


def cmd_fig7(args) -> None:
    data = figures.figure7(_workloads(args), args.cores, args.seed)
    print(f"Figure 7 - message latency ({args.cores} cores)")
    print(render.render_figure7(data))


def cmd_fig8(args) -> None:
    data = figures.figure8(_workloads(args), args.cores, args.seed)
    print(f"Figure 8 - normalised network energy ({args.cores} cores)")
    print(render.render_ratio_figure(data, "energy vs baseline"))


def cmd_fig9(args) -> None:
    data = figures.figure9(_workloads(args), args.cores, args.seed)
    print(f"Figure 9 - speedup ({args.cores} cores)")
    print(render.render_ratio_figure(data, "speedup"))


def cmd_fig10(args) -> None:
    data = figures.figure10(_workloads(args), args.cores, args.seed)
    print(f"Figure 10 - per-application speedup ({args.cores} cores, "
          "SlackDelay1 + NoAck)")
    print(render.render_figure10(data))


def cmd_check_topology(args) -> int:
    """Static self-check of registered topologies: port/opposite symmetry,
    neighbor reciprocity, route-table reachability of every (src, dst)
    pair, and the request/reply same-routers invariant."""
    from repro.noc.topology import TOPOLOGY_CHOICES
    from repro.validate import check_topology

    names = (TOPOLOGY_CHOICES if args.topology in (None, "all")
             else [args.topology])
    print(f"Topology self-check ({args.cores} cores)")
    failures = 0
    for name in names:
        try:
            report = check_topology(name, args.cores)
        except ValueError as exc:
            failures += 1
            print(f"  {name:8s} ERROR: {exc}")
            continue
        if report.ok:
            print(f"  {name:8s} OK  {report.checks_run} checks, "
                  f"{report.n_routers} routers")
        else:
            failures += 1
            print(f"  {name:8s} {len(report.problems)} problem(s):")
            for problem in report.problems[:10]:
                print(f"      {problem}")
    if failures:
        print(f"{failures} topology check(s) FAILED")
        return 1
    print("all topologies clean: adjacency and route tables verified")
    return 0


def cmd_check(args) -> int:
    """Monitored clean sweep: the conformance matrix's check cells, one
    line each (invariant monitor + paper-property oracles, zero
    violations expected)."""
    import time

    from repro.sim.kernel import SimulationError
    from repro.validate import conformance

    cells = conformance.check_cells(args.cycles or 5000, args.cores)
    failures = 0
    print(f"Invariant-checked clean sweep ({len(cells)} conformance cells)")
    for cell in cells:
        started = time.perf_counter()
        try:
            audit = conformance.run(cell, "monitored")["audit"]
        except SimulationError as exc:
            failures += 1
            print(f"  {cell.id:52s} VIOLATION: {exc}")
            continue
        print(f"  {cell.id:52s} OK  {audit['checks_run']} checks, "
              f"{audit['replies_checked']} circuit replies, "
              f"{audit['self_acks_checked']} self-acks, "
              f"{time.perf_counter() - started:.1f}s")
    if failures:
        print(f"{failures} cell(s) FAILED")
        return 1
    print("all cells clean: zero violations")
    return 0


def cmd_inject(args) -> int:
    """Seeded fault-injection campaign: one fault per class, each must be
    caught by its own checker."""
    from repro.validate import FaultKind, run_campaign, run_fault

    directory = crash_dir()
    if args.inject and args.inject != "all":
        try:
            kinds = [FaultKind(args.inject)]
        except ValueError:
            choices = ", ".join(k.value for k in FaultKind)
            print(f"error: unknown fault {args.inject!r} (choose from "
                  f"{choices} or all)", file=sys.stderr)
            return 2
        outcomes = [run_fault(kinds[0], seed=args.seed,
                              crash_dir=directory)]
    else:
        outcomes = run_campaign(seed=args.seed, crash_dir=directory)
    print("Fault-injection campaign "
          f"(seed {args.seed}, crash reports in {directory})")
    print(f"  {'fault':18s} {'variant':20s} {'detected by':20s} "
          f"{'expected':20s} verdict")
    failures = 0
    for o in outcomes:
        verdict = "OK" if o.ok else "FAIL"
        if not o.ok:
            failures += 1
        print(f"  {o.fault:18s} {o.variant:20s} {str(o.checker):20s} "
              f"{o.expected_checker:20s} {verdict}")
        if o.report_path:
            print(f"      report: {o.report_path}")
        if not o.ok:
            print(f"      injected={o.injected} error={o.error}")
    if failures:
        print(f"{failures} fault class(es) escaped their checker")
        return 1
    print("every fault class was detected by its checker")
    return 0


def cmd_chaos(args) -> int:
    """Process-level chaos campaign: every injected fault must either
    recover bit-identically or fail with its precise typed error."""
    from repro.validate import run_chaos_campaign

    print("Chaos campaign", flush=True)
    outcomes = run_chaos_campaign(echo=lambda msg: print(msg, flush=True))
    failures = [o for o in outcomes if not o.ok]
    if failures:
        print(f"{len(failures)} chaos scenario(s) FAILED", flush=True)
        return 1
    print(f"all {len(outcomes)} chaos scenarios held: recovery is "
          f"deterministic", flush=True)
    return 0


def _parse_variant(name: str):
    try:
        return Variant(name)
    except ValueError:
        choices = ", ".join(v.value for v in Variant)
        print(f"error: unknown variant {name!r} (choose from {choices})",
              file=sys.stderr)
        return None


def _observed_run(args, variant, config: TelemetryConfig):
    """Run one telemetry-enabled experiment; returns (result, info)."""
    spec = RunSpec(args.cores, variant, args.workload, args.seed,
                   telemetry=config)
    result = run_experiment(spec)
    return result, last_telemetry()


def cmd_trace(args) -> int:
    """Telemetry-enabled baseline vs. reactive run: Chrome-trace JSON
    (Perfetto-loadable), metric time series, latency breakdown."""
    from repro.telemetry import TelemetryConfig

    variant = _parse_variant(args.variant)
    if variant is None:
        return 2
    config = TelemetryConfig(
        interval=args.interval, profile=False,
        per_router=args.per_router,
    )
    variants = [Variant.BASELINE]
    if variant is not Variant.BASELINE:
        variants.append(variant)
    print(f"Telemetry trace: {args.workload}, {args.cores} cores, "
          f"sampling every {config.interval} cycles")
    for v in variants:
        result, info = _observed_run(args, v, config)
        telem = info["telemetry"]
        registry = telem.registry
        replies = result.counter("circuit.replies_total")
        hits = result.counter("circuit.outcome.on_circuit")
        print(f"\n== {v.value}: {result.exec_cycles} cycles, "
              f"{len(registry)} samples x {len(registry.names())} streams, "
              f"circuit hit rate "
              f"{hits / replies if replies else 0.0:.1%} ==")
        print(telem.spans.breakdown_table())
        for kind, path in sorted(info["paths"].items()):
            print(f"  {kind:12s} {path}")
    print("\nload a trace at https://ui.perfetto.dev (Open trace file)")
    return 0


def cmd_topology(args) -> int:
    """Topology-comparison figure: BASELINE vs Complete_NoAck speedup,
    circuit hit rate and reply latency on mesh, torus and cmesh."""
    data = figures.figure_topology(_workloads(args), args.cores, args.seed)
    text = render.render_figure_topology(data)
    print(f"Topology comparison - Complete_NoAck vs Baseline "
          f"({args.cores} cores)")
    print(text)
    out_path = os.path.join("out", "figure_topology.txt")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write(f"Topology comparison - Complete_NoAck vs Baseline "
                 f"({args.cores} cores)\n")
        fh.write(text + "\n")
    print(f"  written: {out_path}")
    return 0


def cmd_profile(args) -> int:
    """Kernel self-profile of one run: wall-time and ticks per component
    class, plus activity-driven skip effectiveness."""
    from repro.telemetry import TelemetryConfig

    variant = _parse_variant(args.variant)
    if variant is None:
        return 2
    config = TelemetryConfig(
        metrics=False, spans=False, interval=args.interval,
    )
    result, info = _observed_run(args, variant, config)
    print(f"Kernel profile: {variant.value}, {args.workload}, "
          f"{args.cores} cores, {result.exec_cycles} cycles")
    print(info["telemetry"].profiler.table())
    print(f"  report: {info['paths']['profile']}")
    return 0


def cmd_serve(args) -> int:
    """Run the job daemon (:mod:`repro.service`) in the foreground."""
    import logging

    from repro.service import Daemon

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    address = repro_config.resolve(
        "service", override=args.socket,
        default=os.path.join("out", "repro.sock"))
    directory = os.path.dirname(address)
    if directory and ":" not in address:
        os.makedirs(directory, exist_ok=True)
    daemon = Daemon(address, workers=args.workers)
    print(f"job daemon on {address} ({daemon.n_workers} workers); "
          f"clients: REPRO_SERVICE={address}  (ctrl-C to stop)", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.shutdown()
    return 0


def cmd_env(args) -> int:
    """Print the effective resolved configuration, one row per setting."""
    rows = repro_config.describe()
    name_w = max(len(row[0]) for row in rows)
    env_w = max(len(row[1]) for row in rows)
    value_w = max(len(row[2]) for row in rows)
    print("Effective configuration (precedence: kwargs > environment "
          "> defaults)")
    for name, env, value, source in rows:
        print(f"  {name:<{name_w}s}  {env:<{env_w}s}  "
              f"{value:<{value_w}s}  [{source}]")
    return 0


COMMANDS = {
    "table1": cmd_table1,
    "table5": cmd_table5,
    "table6": cmd_table6,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "fig8": cmd_fig8,
    "fig9": cmd_fig9,
    "fig10": cmd_fig10,
}


def _prefetch(names, args, jobs: int) -> None:
    """Compute the commands' runs before rendering, in one batch through
    the active backend (:func:`repro.api.prefetch`)."""
    from repro import api

    api.prefetch(
        figures.report_specs(args.cores, _workloads(args), args.seed, names),
        jobs=jobs, safe=degrades(),
        echo=lambda msg: print(msg, file=sys.stderr, flush=True),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the paper's tables and figures.",
        epilog=repro_config.env_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("what", nargs="?", default=None,
                        choices=list(COMMANDS) + ["all", "check", "inject",
                                                  "chaos", "trace",
                                                  "profile", "topology",
                                                  "serve", "env"])
    parser.add_argument("--cores", type=int, default=16,
                        help="chip size (16 or 64; default 16)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--full", action="store_true",
                        help="sweep all 22 workloads")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the simulations "
                             "(0 = one per CPU core; default: REPRO_JOBS "
                             "or serial)")
    parser.add_argument("--check", action="store_true",
                        help="with a table/figure: audit invariants inside "
                             "every run (REPRO_CHECK=1); alone: run the "
                             "clean validation sweep")
    parser.add_argument("--inject", metavar="FAULT", nargs="?", const="all",
                        default=None,
                        help="run the seeded fault-injection campaign "
                             "(optionally a single fault class)")
    parser.add_argument("--fail-fast", dest="fail_fast", action="store_true",
                        help="abort a sweep on the first failing run "
                             "instead of recording a failure result")
    parser.add_argument("--cycles", type=int, default=None,
                        help="cycles per clean-sweep run (check command)")
    parser.add_argument("--workload", default="fft",
                        help="workload for trace/profile (default fft)")
    parser.add_argument("--variant", default=Variant.COMPLETE_NOACK.value,
                        help="circuit variant for trace/profile "
                             "(default Complete_NoAck)")
    parser.add_argument("--interval", type=int, default=1000,
                        help="telemetry sampling cadence in cycles "
                             "(trace/profile; default 1000)")
    parser.add_argument("--per-router", dest="per_router",
                        action="store_true",
                        help="trace: one buffer-occupancy stream per router")
    parser.add_argument("--topology", metavar="NAME", nargs="?",
                        const="all", default=None,
                        help="with check: statically verify the named "
                             "topology (default: all registered ones)")
    parser.add_argument("--socket", default=None,
                        help="serve: daemon address (socket path or "
                             "host:port; default out/repro.sock)")
    parser.add_argument("--workers", type=int, default=None,
                        help="serve: worker-fleet size (default: "
                             "REPRO_SERVICE_WORKERS or one per CPU core)")
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, parser)
    except repro_config.ConfigError as exc:
        # a user error gets a message; anything else keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, parser) -> int:
    if args.what == "env":
        return cmd_env(args)
    if args.what == "serve":
        return cmd_serve(args)
    try:
        jobs = repro_config.resolve_jobs(args.jobs)
    except ValueError as exc:
        # malformed --jobs / REPRO_JOBS: a message beats a traceback
        parser.error(str(exc))
    if args.what == "inject" or (args.what is None and args.inject):
        return cmd_inject(args)
    if args.topology is not None and args.what in (None, "check"):
        return cmd_check_topology(args)
    if args.what == "check" or (args.what is None and args.check):
        return cmd_check(args)
    if args.what == "chaos":
        return cmd_chaos(args)
    if args.what == "trace":
        return cmd_trace(args)
    if args.what == "profile":
        return cmd_profile(args)
    if args.what == "topology":
        return cmd_topology(args)
    if args.what is None:
        parser.error("nothing to do: name a table/figure, or use "
                     "--check / --inject")
    if args.check:
        os.environ["REPRO_CHECK"] = "1"
    if args.fail_fast:
        os.environ["REPRO_FAILFAST"] = "1"
    names = list(COMMANDS) if args.what == "all" else [args.what]
    _prefetch(names, args, jobs)
    for name in names:
        COMMANDS[name](args)
        if args.what == "all":
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
