"""One run of one workload: the unit ``BENCHMARK.json``'s command names.

``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` ends up
in :func:`run_single`.  It is the load generator: it byte-compiles the
sources, makes the inputs from the seed, and then starts the workload in a
fresh child process (:func:`run_child`), so imports, the experiment memo
and peak RSS are the workload's own and nothing the generator did is in
them.  ``SETUP_CHILDREN`` more children only set up and tear down, so
``setup_s`` is a median and not one sample.  The last line of standard
output is the run's one JSON object.

Every reported time is restated for the reference host
(:func:`bench.host.reference_seconds`) from the calibration slices taken
right around it: the shared host this runs on slows down by half for
minutes at a time, and the slices slow down with it (README).
"""

from __future__ import annotations

import compileall
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import List

from bench import host
from bench.catalog import END_TO_END, MIN_OPS, PER_LAYER
from bench.digest import digest, golden_for
from bench.tracing import Tracer
from bench.workloads import ALL, Context, Op, Workload

#: Set-up-only children per run, beside the measuring child's own set-up.
SETUP_CHILDREN = 8


# ----------------------------------------------------------------------
# In the child: set up (timed), then measure or trace.
# ----------------------------------------------------------------------

def _timed_setup(workload: Workload, args) -> "tuple[Context, host.Laps]":
    """Import ``repro`` and set the workload up in the scratch directory
    the generator prepared; returns the one lap both took."""
    laps = host.Laps()
    host.import_repro()
    host.scrub_env()
    host.use_scratch(args.scratch)
    ctx = Context(workload.name, args.seed, args.mode, args.scratch)
    try:
        workload.setup(ctx)
    except BaseException:
        workload.teardown(ctx)
        raise
    laps.lap()
    return ctx, laps


def _setup_sample(laps: host.Laps) -> dict:
    return {"seconds": laps.seconds[0], "slices": laps.slices,
            "stolen": laps.stolen[0]}


def setup_only(args) -> int:
    workload = ALL[args.workload]
    ctx, laps = _timed_setup(workload, args)
    workload.teardown(ctx)
    print(json.dumps(_setup_sample(laps)))
    return 0


def _steady(draws: List["tuple[float, float, float]"]) -> float:
    """One number for the (seconds, slice before, slice after) draws of one
    timing: the median of their reference-host seconds.  A burst can hit
    the timing or one of its slices, so single draws are off either way;
    the low ones are the draws whose slices happened to read slow."""
    return statistics.median(
        host.reference_seconds(d[0], d[1:]) for d in draws)


def _check(ops: List[Op], ctx: Context) -> dict:
    """Attempted and failed operations, and the digest of the outputs.

    Every operation of a run sees the same inputs, so their digests must
    agree with each other, and with the committed one for the golden seed.
    """
    digests = [digest(op.payload) for op in ops]
    expected = golden_for(ctx.mode, ctx.workload, ctx.seed) or digests[0]
    return {
        "attempted": sum(op.attempted for op in ops) + len(ops),
        "failed": sum(op.failed for op in ops)
        + sum(1 for d in digests if d != expected),
        "digest": digests[0],
    }


def _measure(workload: Workload, ctx: Context, seconds: float,
             setup: host.Laps) -> dict:
    ops: List[Op] = []
    min_ops = 1 if ctx.mode == "quick" else MIN_OPS
    deadline = time.perf_counter() + seconds
    while len(ops) < min_ops or time.perf_counter() < deadline:
        gc.collect()
        ops.append(workload.op(ctx))
    workload.teardown(ctx)  # children must be waited for to be counted
    slices = [s for op in ops for s in op.slices]
    return dict(
        _check(ops, ctx),
        values={
            # Part by part (one per variant the operation runs), summed.
            "wall_s": sum(
                _steady([(op.parts[i], op.slices[i], op.slices[i + 1])
                         for op in ops])
                for i in range(len(ops[0].parts))),
            "peak_rss_mb": host.peak_rss_mb(),
        },
        samples={"wall_s": [op.parts for op in ops],
                 "slices": [op.slices for op in ops],
                 "stolen": [op.stolen for op in ops],
                 "setup_s": [_setup_sample(setup)]},
        host={"calibration_iters_per_s": host.iters_per_s(min(slices)),
              "noise_frac": statistics.median(slices) / min(slices) - 1.0},
    )


def _trace(workload: Workload, ctx: Context) -> dict:
    before = host.calibration_slice()
    tracer = Tracer(workload.name)
    start = time.perf_counter()
    op, layers = workload.trace(ctx, tracer)
    wall = time.perf_counter() - start
    after = host.calibration_slice()
    layers["host.calibration_iters_per_s"] = \
        host.iters_per_s(min(before, after))
    layers["host.noise_frac"] = abs(after - before) / min(before, after)
    layers["model.sim_kcycles_per_s"] = op.kcycles / op.wall_s
    layers["trace.wall_s"] = wall
    layers["trace.self_time_frac"] = sum(tracer.self_times().values()) / wall
    unknown = set(layers) - {m.name for m in PER_LAYER}
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {unknown}")
    path = os.path.join(host.OUT_DIR,
                        f"trace-{workload.name}-seed{ctx.seed}.json")
    tracer.write(path)
    print(f"{tracer.table()}\ntrace: {os.path.relpath(path)}",
          file=sys.stderr)
    return dict(
        _check([op], ctx),
        # Every workload reports every layer; 0 = the layer does not run.
        values={m.name: layers.get(m.name, 0) for m in PER_LAYER},
    )


def run_child(args) -> int:
    """The workload's own process; writes its outcome to ``--detail``."""
    workload = ALL[args.workload]
    ctx, setup = _timed_setup(workload, args)
    try:
        if args.trace:
            outcome = _trace(workload, ctx)
        else:
            outcome = _measure(workload, ctx, args.seconds, setup)
    finally:
        workload.teardown(ctx)
    with open(args.detail, "w") as handle:
        json.dump(outcome, handle)
    return 0


# ----------------------------------------------------------------------
# In the generator: inputs, children, the result line.
# ----------------------------------------------------------------------

def _spawn(ctx: Context, *extra: str) -> str:
    """Run a child of this run to its end; returns its standard output."""
    command = [sys.executable, "-m", "bench", "--workload", ctx.workload,
               "--seed", str(ctx.seed), "--scratch", ctx.scratch, *extra]
    if ctx.mode == "quick":
        command.append("--quick")
    return subprocess.run(command, cwd=host.ROOT, check=True, timeout=170,
                          stdout=subprocess.PIPE, text=True).stdout


def run_single(args) -> int:
    workload = ALL[args.workload]
    # Build step: byte-compile once so no timed import pays for it.
    compileall.compile_dir(host.SRC, quiet=2)
    host.import_repro()
    host.scrub_env()
    scratch = host.make_scratch()
    try:
        ctx = Context(workload.name, args.seed, args.mode, scratch)
        workload.prepare(ctx)
        detail = os.path.join(scratch, "detail.json")
        _spawn(ctx, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--detail", detail)
        with open(detail) as handle:
            outcome = json.load(handle)
        if not args.trace:
            setups = outcome["samples"]["setup_s"] + [
                json.loads(_spawn(ctx, "--setup-only"))
                for _ in range(SETUP_CHILDREN)
            ]
            outcome["samples"]["setup_s"] = setups
            outcome["values"]["setup_s"] = statistics.median(
                host.reference_seconds(s["seconds"], s["slices"])
                for s in setups)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = {m.name: m.unit for m in (PER_LAYER if args.trace else END_TO_END)}
    if args.detail:
        outcome.update(workload=workload.name, seed=args.seed,
                       mode=args.mode, trace=bool(args.trace))
        with open(args.detail, "w") as handle:
            json.dump(outcome, handle)
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["values"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0
