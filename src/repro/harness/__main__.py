"""Command-line entry point: regenerate any table or figure of the paper.

Usage::

    python -m repro.harness table1 [--cores 64] [--full] [--check]
    python -m repro.harness all --jobs 0      # the report, one worker per CPU
    python -m repro.harness check             # the validation table
    python -m repro.harness trace --workload fft    # Perfetto trace, metrics
    python -m repro.harness profile           # kernel wall-time profile
    python -m repro.harness topology          # mesh / torus / cmesh figure
    python -m repro.harness serve --socket /tmp/repro.sock --workers 4
                                              # job daemon for REPRO_SERVICE
    python -m repro.harness env               # resolved configuration

The table and figure commands are the entries of
:data:`repro.harness.render.REPORT`.
Every ``REPRO_*`` environment variable is listed by ``--help`` (generated
from the :mod:`repro.config` registry); ``env`` shows the resolved values.
A ``REPRO_*`` variable no setting reads is ignored: ``env`` shows it as
``unknown (ignored)``, every other command warns about it on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext
from functools import partial
from typing import TYPE_CHECKING

from repro import config as repro_config
from repro.harness import figures, render
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


def _show(entry, args) -> None:
    """Print one table or figure of the report at ``--cores``."""
    print(render.section(entry, _workloads(args), args.cores, args.seed)[0])


def cmd_check(args) -> int:
    """Run every row of the validation table
    (:mod:`repro.validate.scenarios`): one line per row, exit 1 if any
    row does not observe its expected outcome."""
    from repro.validate import scenarios

    directory = crash_dir()
    rows = scenarios.table(args.seed, args.cores, directory)
    print(f"Validation table: {len(rows)} rows (seed {args.seed}, crash "
          f"reports in {directory})", flush=True)
    outcomes = scenarios.run_scenarios(rows, echo=partial(print, flush=True))
    failed = [o.name for o in outcomes if not o.ok]
    if failed:
        print(f"{len(failed)} row(s) FAILED: {', '.join(failed)}")
        return 1
    print(f"all {len(outcomes)} rows held")
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
    text = (f"Topology comparison - Complete_NoAck vs Baseline "
            f"({args.cores} cores)\n" + render.render_figure_topology(data))
    print(text)
    out_path = os.path.join("out", "figure_topology.txt")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
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


#: The report's table and figure commands, in the order ``all`` runs them.
COMMANDS = {name: partial(_show, entry)
            for name, entry in render.REPORT.items()}

#: The other commands that name one function.
TOOLS = {"trace": cmd_trace, "profile": cmd_profile,
         "topology": cmd_topology, "serve": cmd_serve, "env": cmd_env}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the paper's tables and figures.",
        epilog=repro_config.env_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("what", nargs="?", default=None,
                        choices=list(COMMANDS) + ["all", "check"]
                        + list(TOOLS))
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
                             "validation table")
    parser.add_argument("--fail-fast", dest="fail_fast", action="store_true",
                        help="abort a sweep on the first failing run "
                             "instead of recording a failure result")
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
    parser.add_argument("--socket", default=None,
                        help="serve: daemon address (socket path or "
                             "host:port; default out/repro.sock)")
    parser.add_argument("--workers", type=int, default=None,
                        help="serve: worker-fleet size (default: "
                             "REPRO_SERVICE_WORKERS or one per CPU core)")
    args = parser.parse_args(argv)
    if args.what != "env":  # env lists them as rows instead
        for name in repro_config.unknown_env():
            print(f"warning: {name} is not a repro setting and is ignored "
                  f"(`python -m repro.harness env` lists the settings)",
                  file=sys.stderr)
    try:
        # serve logs through its own timestamped handler instead
        with nullcontext() if args.what == "serve" else _warnings_to_stderr():
            return _dispatch(args, parser)
    except repro_config.ConfigError as exc:
        # a user error gets a message; anything else keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


@contextmanager
def _warnings_to_stderr():
    """While a command runs, print what the ``repro`` loggers warn about
    on stderr as ``warning: <message>`` lines, like the CLI's own."""
    import logging

    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    logger = logging.getLogger("repro")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)


def _dispatch(args, parser) -> int:
    if args.what in ("env", "serve"):
        return TOOLS[args.what](args)
    try:
        jobs = repro_config.resolve_jobs(args.jobs)
    except ValueError as exc:
        # malformed --jobs / REPRO_JOBS: a message beats a traceback
        parser.error(str(exc))
    if args.what == "check" or (args.what is None and args.check):
        return cmd_check(args)
    if args.what in TOOLS:
        return TOOLS[args.what](args)
    if args.what is None:
        parser.error("nothing to do: name a table/figure, or use --check")
    if args.check:
        os.environ["REPRO_CHECK"] = "1"
    if args.fail_fast:
        os.environ["REPRO_FAILFAST"] = "1"
    names = list(COMMANDS) if args.what == "all" else [args.what]
    from repro import api

    # the commands' runs in one batch through the active backend
    api.prefetch(
        render.report_specs(args.cores, _workloads(args), args.seed, names),
        jobs=jobs, safe=degrades(),
        echo=lambda msg: print(msg, file=sys.stderr, flush=True))
    for name in names:
        COMMANDS[name](args)
        if args.what == "all":
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
