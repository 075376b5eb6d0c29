"""The seven workloads: set-up, one timed operation, and the traced pass.

Each workload is closed loop with one generator: the next operation starts
when the previous one has returned.  ``jobs``/``workers`` are
``min(2, nproc)`` and one client connection is open at a time.

``setup`` is everything a user pays before the timed region (the caller
times it, imports included, so each workload imports what it needs inside
its own methods).  ``op`` returns the seconds of its timed region only,
part by part, with the calibration slices taken around each part
(``host.Laps``); building the next operation's objects and checking
outputs happen outside it.  ``trace`` is the separate traced pass: it returns per-layer numbers
and never feeds an end-to-end metric.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List

from bench import host
from bench.catalog import SIZES
from bench.digest import (
    digest,
    run_payload,
    run_stats_payload,
    stats_payload,
    traffic_payload,
)
from bench.tracing import Tracer

@dataclass
class Context:
    workload: str
    seed: int
    mode: str
    scratch: str
    jobs: int = field(default_factory=host.jobs)
    #: What ``setup`` built for ``op``.
    state: dict = field(default_factory=dict)

    @property
    def sizes(self) -> Dict[str, object]:
        return SIZES[self.mode]


@dataclass
class Op:
    #: Seconds of each part of the timed region, in order (one entry per
    #: variant where an operation runs several); their sum is the region.
    parts: List[float]
    kcycles: float
    #: Simulated outputs, digested by the caller.
    payload: object
    attempted: int
    failed: int
    #: Calibration slices around the parts: ``slices[i]`` before part
    #: ``i``, ``slices[i + 1]`` after it (untraced operations only).
    slices: List[float] = field(default_factory=list)
    #: Seconds the hypervisor stole during each part, already left out of
    #: ``parts`` (untraced operations only).
    stolen: List[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.parts)


class LayerTotals:
    """Per-layer numbers summed over the profiled simulators of one pass."""

    CLASS_METRICS = {
        "L1Controller": "coherence.l1_busy_s",
        "L2BankController": "coherence.l2_busy_s",
        "MemoryController": "coherence.mem_busy_s",
        "Core": "cpu.busy_s",
        "RequestReplyTraffic": "traffic.busy_s",
    }
    COUNTERS = {
        "noc.flits_delivered": "noc.flits_delivered",
        "noc.xbar_traversals": "noc.xbar_traversals",
        "circuit.reservations": "circuits.reservations",
        "circuit.reservation_failed": "circuits.reservation_failed",
        "circuit.undo_hops": "circuits.undo_hops",
    }

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        #: Component-ticks an always-tick kernel would have run.
        self._possible_ticks = 0
        self._on_circuit = 0
        self._replies = 0

    def add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + amount

    def add_profile(self, tracer: Tracer, report: dict) -> None:
        """Fold one ``KernelProfiler.report()`` in, and lay its shares out
        as aggregate spans under the open span."""
        self.add("kernel.self_s", report["kernel_seconds"])
        self.add("kernel.ticks_run", report["ticks_run"])
        self._possible_ticks += report["cycles"] * sum(
            row["components"] for row in report["classes"].values())
        tracer.aggregate("sim.kernel", report["kernel_seconds"])
        for name, row in report["classes"].items():
            tracer.aggregate(f"sim.{name}", row["seconds"])
            busy = row["seconds_corrected"]
            if row["group"] in ("router", "ni"):
                self.add(f"{row['group']}.busy_s", busy)
                self.add(f"{row['group']}.ticks", row["ticks"])
            elif row["group"] == "coherence":
                self.add("coherence.ticks", row["ticks"])
            elif name == "Core":
                self.add("cpu.ticks", row["ticks"])
            if name in self.CLASS_METRICS:
                self.add(self.CLASS_METRICS[name], busy)

    def add_counters(self, counters) -> None:
        for key, metric in self.COUNTERS.items():
            self.add(metric, counters.get(key, 0))
        self._on_circuit += counters.get("circuit.outcome.on_circuit", 0)
        self._replies += counters.get("circuit.replies_total", 0)

    def finish(self, plain_wall_s: float) -> Dict[str, float]:
        """Derived ratios; ``plain_wall_s`` is the untraced time of the
        runs whose counters were added."""
        out = dict(self.values)
        ticks = out.get("kernel.ticks_run", 0)
        if ticks:
            out["kernel.ns_per_tick"] = out["kernel.self_s"] / ticks * 1e9
            out["kernel.skip_ratio"] = 1.0 - ticks / self._possible_ticks
        for group in ("router", "ni"):
            if out.get(f"{group}.ticks"):
                out[f"{group}.us_per_tick"] = (
                    out[f"{group}.busy_s"] / out[f"{group}.ticks"] * 1e6)
        if out.get("noc.flits_delivered"):
            out["noc.host_us_per_flit"] = (
                plain_wall_s / out["noc.flits_delivered"] * 1e6)
        if self._replies:
            out["circuits.on_circuit_frac"] = self._on_circuit / self._replies
        return out


Layers = Dict[str, float]


def _profiler():
    from repro.telemetry import KernelProfiler

    return KernelProfiler()


class Workload:
    name = ""

    def prepare(self, ctx: Context) -> None:
        """Generate inputs from the seed (untimed, main process only)."""

    def setup(self, ctx: Context) -> None:
        raise NotImplementedError

    def op(self, ctx: Context) -> Op:
        raise NotImplementedError

    def teardown(self, ctx: Context) -> None:
        """Stop what ``setup`` started."""

    def trace(self, ctx: Context, tracer: Tracer) -> "tuple[Op, Layers]":
        """The traced pass: its untraced operation and per-layer numbers."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Traffic only: repro.noc.traffic over router + NI + kernel.
# ----------------------------------------------------------------------

class TrafficWorkload(Workload):
    def __init__(self, name: str, variants: List[str], rate_key: str,
                 cycles_key: str) -> None:
        self.name = name
        self.variants = variants
        self.rate_key = rate_key
        self.cycles_key = cycles_key

    def _build(self, ctx: Context) -> list:
        from repro.noc.traffic import RequestReplyTraffic
        from repro.sim.config import SystemConfig, Variant

        return [
            (name, RequestReplyTraffic(
                SystemConfig(n_cores=16).with_variant(Variant[name]),
                ctx.sizes[self.rate_key], seed=ctx.seed))
            for name in self.variants
        ]

    def setup(self, ctx: Context) -> None:
        ctx.state["traffics"] = self._build(ctx)

    @staticmethod
    def _drive(traffic, cycles: int) -> float:
        start = time.perf_counter()
        traffic.run(cycles)
        traffic.drain()
        return time.perf_counter() - start

    @staticmethod
    def _check(traffics) -> int:
        return sum(
            1 for _, t in traffics
            if t.replies_received != t.requests_sent or not t.requests_sent
        )

    def op(self, ctx: Context) -> Op:
        traffics = ctx.state.pop("traffics", None) or self._build(ctx)
        cycles = ctx.sizes[self.cycles_key]
        laps = host.Laps()
        for _, traffic in traffics:
            self._drive(traffic, cycles)
            laps.lap()
        return Op(
            parts=laps.seconds, slices=laps.slices, stolen=laps.stolen,
            kcycles=sum(t.cycle for _, t in traffics) / 1000.0,
            payload={name: traffic_payload(t) for name, t in traffics},
            attempted=len(traffics),
            failed=self._check(traffics),
        )

    def trace(self, ctx: Context, tracer: Tracer) -> "tuple[Op, Layers]":
        cycles = ctx.sizes[self.cycles_key]
        layers = LayerTotals()
        plain: Dict[str, float] = {}
        flits: Dict[str, int] = {}
        profiled_wall = 0.0
        with tracer.span(self.name):
            for name, traffic in self._build(ctx):
                with tracer.span(f"plain.{name}"):
                    plain[name] = self._drive(traffic, cycles)
            traffics = self._build(ctx)
            for name, traffic in traffics:
                profiler = _profiler().attach(traffic.sim)
                with tracer.span(f"profiled.{name}") as span:
                    self._drive(traffic, cycles)
                    profiler.detach()
                    layers.add_profile(tracer, profiler.report())
                profiled_wall += span.seconds
                counters = traffic.net.stats.counters
                layers.add_counters(counters)
                flits[name] = counters.get("noc.flits_delivered", 0)
        out = layers.finish(sum(plain.values()))
        out["telemetry.profiler_overhead_frac"] = (
            profiled_wall / sum(plain.values()) - 1.0)
        out["model.exec_kcycles"] = sum(t.cycle for _, t in traffics) / 1e3
        out["model.reply_lat_cycles"] = traffics[-1][1].mean_reply_latency()
        if {"BASELINE", "COMPLETE_NOACK"} <= set(plain):
            out["circuits.host_overhead_ratio"] = (
                (plain["COMPLETE_NOACK"] / flits["COMPLETE_NOACK"])
                / (plain["BASELINE"] / flits["BASELINE"]))
        return Op(
            parts=list(plain.values()),
            kcycles=out["model.exec_kcycles"],
            payload={name: traffic_payload(t) for name, t in traffics},
            attempted=len(traffics),
            failed=self._check(traffics),
        ), out


# ----------------------------------------------------------------------
# One CMP run through the public facade: the whole stack.
# ----------------------------------------------------------------------

class CmpWorkload(Workload):
    def __init__(self, name: str, n_cores: int, variants: List[str],
                 program: str, quanta_key: str, observed: bool = False,
                 sharded: bool = False) -> None:
        self.name = name
        self.n_cores = n_cores
        self.variants = variants
        self.program = program
        self.quanta_key = quanta_key
        #: Traced pass extras: a telemetry-observed run / a 2-shard run.
        self.observed = observed
        self.sharded = sharded

    def setup(self, ctx: Context) -> None:
        from repro import api  # noqa: F401 - the import is the set-up
        from repro.harness.experiment import RunSpec
        from repro.sim.config import Variant

        os.environ["REPRO_CRASH_DIR"] = os.path.join(ctx.scratch, "crash")
        measure, warmup = ctx.sizes[self.quanta_key]
        ctx.state["specs"] = [
            RunSpec(self.n_cores, Variant[name], self.program, ctx.seed,
                    measure, warmup)
            for name in self.variants
        ]

    def op(self, ctx: Context) -> Op:
        from repro import api
        from repro.harness import experiment

        experiment._memo.clear()
        results = []
        laps = host.Laps()
        for spec in ctx.state["specs"]:
            results.append(api.run(spec))
            laps.lap()
        return Op(
            parts=laps.seconds, slices=laps.slices, stolen=laps.stolen,
            kcycles=sum(r.exec_cycles for r in results) / 1000.0,
            payload={r.variant: run_payload(r) for r in results},
            attempted=len(results),
            failed=sum(1 for r in results if r.failed or not r.exec_cycles),
        )

    def _replica(self, ctx: Context, tracer: Tracer, spec,
                 layers: LayerTotals):
        """The calls ``run_experiment``'s plain path makes, with a span
        around each and the profiler on the two timing phases."""
        from repro.cpu.workloads import workload_by_name
        from repro.sim.config import SystemConfig
        from repro.system import build_system

        config = SystemConfig(n_cores=spec.n_cores,
                              seed=spec.seed).with_variant(spec.variant)
        with tracer.span("system.build") as span:
            system = build_system(config, workload_by_name(spec.workload))
        layers.add("system.build_s", span.seconds)
        with tracer.span("system.prewarm") as span:
            system.functional_prewarm()
        layers.add("system.prewarm_s", span.seconds)
        profiler = _profiler().attach(system.sim)
        with tracer.span("system.warmup") as span:
            system.run_instructions(spec.warmup_instructions)
            system.drain()
            system.stats.reset()
            profiler.detach()
            layers.add_profile(tracer, profiler.report())
        layers.add("system.warmup_s", span.seconds)
        profiler = _profiler().attach(system.sim)
        with tracer.span("system.measure") as span:
            start = system.sim.cycle
            finish = system.run_instructions(spec.measure_instructions)
            profiler.detach()
            layers.add_profile(tracer, profiler.report())
        layers.add("system.measure_s", span.seconds)
        layers.add_counters(system.stats.counters)
        return stats_payload(system.stats, finish - start)

    def trace(self, ctx: Context, tracer: Tracer) -> "tuple[Op, Layers]":
        from repro import api
        from repro.harness import experiment

        specs = ctx.state["specs"]
        layers = LayerTotals()
        attempted = failed = 0
        experiment._memo.clear()
        with tracer.span(self.name):
            results = []
            plain_wall = []
            for spec in specs:
                with tracer.span(f"api.run.{spec.variant.name}") as span:
                    results.append(api.run(spec))
                plain_wall.append(span.seconds)
            spec, reference = specs[-1], results[-1]
            gc.collect()  # as between operations: api.run's garbage is not
            # the replica's to pay for
            with tracer.span(f"replica.{spec.variant.name}") as span:
                replica = self._replica(ctx, tracer, spec, layers)
            out = layers.finish(plain_wall[-1])
            out["telemetry.profiler_overhead_frac"] = (
                span.seconds / plain_wall[-1] - 1.0)
            attempted += 1
            failed += digest(replica) != digest(run_stats_payload(reference))
            if self.observed:
                out["telemetry.observed_overhead_frac"] = (
                    self._observed(ctx, tracer, spec) / plain_wall[-1] - 1.0)
            if self.sharded:
                attempted += 1
                failed += self._sharded(ctx, tracer, spec, reference,
                                        plain_wall[-1], out)
        out["harness.result_bytes"] = len(json.dumps(reference.to_json()))
        out["model.exec_kcycles"] = sum(r.exec_cycles for r in results) / 1e3
        out["model.reply_lat_cycles"] = reference.mean("lat.net.crep")
        by_variant = {r.variant: r for r in results}
        if "Baseline" in by_variant and reference.variant != "Baseline":
            out["model.speedup_pct"] = 100.0 * (
                by_variant["Baseline"].exec_cycles / reference.exec_cycles
                - 1.0)
        return Op(
            parts=plain_wall,
            kcycles=out["model.exec_kcycles"],
            payload={r.variant: run_payload(r) for r in results},
            attempted=attempted + len(results),
            failed=failed + sum(1 for r in results if r.failed),
        ), out

    @staticmethod
    def _observed(ctx: Context, tracer: Tracer, spec) -> float:
        """Seconds of the same run with the default instruments attached."""
        from repro import api
        from repro.harness import experiment
        from repro.telemetry import TelemetryConfig

        experiment._memo.clear()
        config = TelemetryConfig(
            out_dir=os.path.join(ctx.scratch, "telemetry"),
            trace_dir=os.path.join(ctx.scratch, "trace"))
        with tracer.span("api.run.observed") as span:
            api.run(replace(spec, telemetry=config))
        return span.seconds

    @staticmethod
    def _sharded(ctx: Context, tracer: Tracer, spec, reference,
                 plain_wall: float, out: Layers) -> int:
        """The same run on the 2-shard engine; returns 1 if it diverged."""
        from repro.sim.config import SystemConfig
        from repro.sim.shard import run_sharded

        config = SystemConfig(n_cores=spec.n_cores,
                              seed=spec.seed).with_variant(spec.variant)
        with tracer.span("run_sharded.2"):
            sharded = run_sharded(config, spec.workload,
                                  spec.warmup_instructions,
                                  spec.measure_instructions, n_shards=2)
        out["shard.wall_ratio_2"] = sharded.wall_seconds / plain_wall
        out["shard.worker_cpu_s"] = sum(sharded.worker_cpu_seconds)
        out["shard.wait_frac"] = (
            1.0 - max(sharded.worker_cpu_seconds) / sharded.wall_seconds)
        out["shard.respawns"] = sharded.respawns
        return digest(stats_payload(sharded.stats, sharded.exec_cycles)) \
            != digest(run_stats_payload(reference))


# ----------------------------------------------------------------------
# Sweeps: repro.harness around many runs, cold and warm, and the daemon.
# ----------------------------------------------------------------------

def _sweep_programs(ctx: Context) -> List[str]:
    from repro.harness.experiment import DEFAULT_WORKLOAD_SUBSET

    return DEFAULT_WORKLOAD_SUBSET[:ctx.sizes["sweep_workloads"]]


def _cold_specs(ctx: Context) -> list:
    from repro.harness.experiment import RunSpec
    from repro.sim.config import Variant

    return [
        RunSpec(16, variant, program, ctx.seed)
        for variant in (Variant.BASELINE, Variant.COMPLETE_NOACK)
        for program in _sweep_programs(ctx)
    ]


def _sweep_env(ctx: Context) -> None:
    """Sweeps take their quanta from REPRO_SCALE, as the CLI's users do."""
    os.environ["REPRO_SCALE"] = str(ctx.sizes["sweep_scale"])
    os.environ["REPRO_CRASH_DIR"] = os.path.join(ctx.scratch, "crash")


def _fresh_store(ctx: Context) -> str:
    """A new, empty sharded store; returns its REPRO_CACHE spelling."""
    from repro.harness.cache import open_cache

    path = tempfile.mkdtemp(prefix="store", dir=ctx.scratch) + os.sep
    open_cache(path)
    return path


def _cold_pass(ctx: Context, specs: list) -> list:
    from repro import api
    from repro.harness import experiment

    experiment._memo.clear()
    return api.results(api.submit(specs, jobs=ctx.jobs))


def _mean_speedup_pct(results: list) -> float:
    """Mean Complete_NoAck speed-up over the swept programs, percent."""
    base = {r.workload: r for r in results if r.variant == "Baseline"}
    gains = [
        base[r.workload].exec_cycles / r.exec_cycles - 1.0
        for r in results if r.variant != "Baseline" and r.exec_cycles
    ]
    return 100.0 * statistics.fmean(gains) if gains else 0.0


class SweepCold(Workload):
    name = "sweep16_cold"

    def setup(self, ctx: Context) -> None:
        _sweep_env(ctx)
        ctx.state["specs"] = _cold_specs(ctx)
        ctx.state["store"] = _fresh_store(ctx)

    def _pass(self, ctx: Context):
        from repro.harness.cache import open_cache

        store = ctx.state.pop("store", None) or _fresh_store(ctx)
        os.environ["REPRO_CACHE"] = store
        specs = ctx.state["specs"]
        laps = host.Laps()
        results = _cold_pass(ctx, specs)
        laps.lap()
        del os.environ["REPRO_CACHE"]
        stored = open_cache(store).load_all()
        failed = sum(1 for r in results if r.failed or not r.exec_cycles)
        failed += sum(1 for r in results if r.spec_key not in stored)
        return store, results, Op(
            parts=laps.seconds, slices=laps.slices, stolen=laps.stolen,
            kcycles=sum(r.exec_cycles for r in results) / 1000.0,
            payload={r.spec_key: run_payload(r) for r in results},
            attempted=2 * len(specs),
            failed=failed,
        )

    def op(self, ctx: Context) -> Op:
        store, _, op = self._pass(ctx)
        shutil.rmtree(store, ignore_errors=True)
        return op

    def trace(self, ctx: Context, tracer: Tracer) -> "tuple[Op, Layers]":
        from repro.harness import figures
        from repro.sim.config import Variant

        out: Layers = {}
        with tracer.span(self.name):
            cpu_before = host.children_cpu_s()
            with tracer.span("api.submit+results"):
                store, results, op = self._pass(ctx)
            out["harness.pool_efficiency"] = (
                (host.children_cpu_s() - cpu_before)
                / (ctx.jobs * op.wall_s))
            _time_store(tracer, store, results[0].to_json(), out)
        out["harness.result_bytes"] = len(json.dumps(results[0].to_json()))
        out["model.exec_kcycles"] = op.kcycles
        out["model.speedup_pct"] = _mean_speedup_pct(results)
        out["model.fidelity_err_pp"] = abs(
            out["model.speedup_pct"]
            - figures.PAPER_SPEEDUP[(Variant.COMPLETE_NOACK, 16)])
        return op, out


def _time_store(tracer: Tracer, store_path: str, entry: dict,
                out: Layers, reps: int = 20) -> None:
    """Median milliseconds of one ``store`` and one ``load`` on the store
    as it stands (its size is the caller's choice)."""
    from repro.harness.cache import open_cache

    store = open_cache(store_path)
    key = entry["spec_key"]
    puts, gets = [], []
    with tracer.span("store.put"):
        for rep in range(reps):
            start = time.perf_counter()
            store.store(f"{key}/probe{rep}", entry)
            puts.append(time.perf_counter() - start)
    with tracer.span("store.get"):
        for rep in range(reps):
            start = time.perf_counter()
            store.load(key)
            gets.append(time.perf_counter() - start)
    out["harness.store_put_ms"] = statistics.median(puts) * 1e3
    out["harness.store_get_ms"] = statistics.median(gets) * 1e3


class SweepWarm(Workload):
    """Requests a filled store's keys again and assembles a table and a
    figure.  ``prepare`` simulates the 12 base results once and stores
    them under every key the pass asks for: re-keyed copies, the way a
    reproduction-scale store looks to the harness without hours of
    simulation.  That is input generation; ``setup`` opens the store."""

    name = "sweep16_warm"

    @staticmethod
    def _specs(ctx: Context) -> list:
        """The specs that cover the store: every (variant, program)
        figure9 reads, for the seed and its successors."""
        from repro.harness import figures
        from repro.harness.experiment import RunSpec
        from repro.sim.config import Variant

        return list(itertools.islice(
            (RunSpec(16, variant, program, seed)
             for seed in itertools.count(ctx.seed)
             for variant in [Variant.BASELINE] + figures.FIG9_VARIANTS
             for program in _sweep_programs(ctx)),
            ctx.sizes["store_entries"]))

    @staticmethod
    def _store(ctx: Context) -> str:
        return os.path.join(ctx.scratch, "store") + os.sep

    def prepare(self, ctx: Context) -> None:
        """An entry is the base result of its program (Baseline's for
        Baseline, Complete_NoAck's for every circuit variant) under the
        spec's own key."""
        from repro.harness.cache import open_cache
        from repro.sim.config import Variant

        _sweep_env(ctx)
        base = {r.spec_key: r.to_json()
                for r in _cold_pass(ctx, _cold_specs(ctx))}
        entries = {}
        for spec in self._specs(ctx):
            source = replace(
                spec, seed=ctx.seed,
                variant=Variant.BASELINE if spec.variant is Variant.BASELINE
                else Variant.COMPLETE_NOACK)
            key = spec.scaled().key()
            entries[key] = dict(base[source.scaled().key()], spec_key=key,
                                variant=spec.variant.value)
        open_cache(self._store(ctx)).store_many(entries)

    def setup(self, ctx: Context) -> None:
        from repro.harness.cache import open_cache

        _sweep_env(ctx)
        ctx.state["specs"] = self._specs(ctx)
        ctx.state["store"] = self._store(ctx)
        open_cache(ctx.state["store"])
        os.environ["REPRO_CACHE"] = ctx.state["store"]

    def _pass(self, ctx: Context):
        """One warm pass: its Op, the batch handle, the results and the
        four timestamps around fetch, assemble and render."""
        from repro import api
        from repro.harness import experiment, figures, render, tables

        specs = ctx.state["specs"]
        programs = _sweep_programs(ctx)
        experiment._memo.clear()
        laps = host.Laps()
        times = [time.perf_counter()]
        # jobs=1: on store hits the pool only adds processes, and three
        # busy processes on two shared cores do not time repeatably.
        handle = api.submit(specs, jobs=1)
        results = api.results(handle)
        times.append(time.perf_counter())
        table = tables.table1(programs, 16, ctx.seed)
        figure = figures.figure9(programs, 16, ctx.seed)
        times.append(time.perf_counter())
        text = [render.render_table1(table, tables.TABLE1_PAPER),
                render.render_ratio_figure(figure, "speedup")]
        times.append(time.perf_counter())
        laps.lap()
        return Op(
            parts=laps.seconds, slices=laps.slices, stolen=laps.stolen,
            kcycles=sum(r.exec_cycles for r in results) / 1000.0,
            payload={"results": [digest(run_payload(r)) for r in results],
                     "text": text},
            attempted=len(specs),
            failed=sum(1 for r in results if r.failed or not r.exec_cycles)
            + abs(len(specs) - len(results)),
        ), handle, results, times

    def op(self, ctx: Context) -> Op:
        return self._pass(ctx)[0]

    def _traced_pass(self, ctx: Context, tracer: Tracer, name: str,
                     out: Layers):
        """One pass, its three phases recorded as child spans from the
        timestamps the pass takes anyway; returns its Op, handle and
        results."""
        with tracer.span(name):
            op, handle, results, times = self._pass(ctx)
            for label, begin, end in zip(
                    ("fetch", "assemble", "render"), times, times[1:]):
                tracer.record(f"{name}.{label}", begin, end)
        out["harness.assemble_ms"] = (times[2] - times[1]) * 1e3
        out["harness.render_ms"] = (times[3] - times[2]) * 1e3
        out["harness.result_bytes"] = len(json.dumps(results[0].to_json()))
        out["model.exec_kcycles"] = op.kcycles
        return op, handle, results

    def trace(self, ctx: Context, tracer: Tracer) -> "tuple[Op, Layers]":
        out: Layers = {}
        with tracer.span(self.name):
            op, _, results = self._traced_pass(ctx, tracer, "warm_pass", out)
            _time_store(tracer, ctx.state["store"], results[0].to_json(), out)
        return op, out


class Service(SweepWarm):
    """The warm pass through ``python -m repro.harness serve``."""

    name = "service16"

    def _boot(self, ctx: Context, store: str) -> float:
        """Start the daemon on ``store``; seconds until ``ping`` answers."""
        from repro.service import ServiceClient

        directory = tempfile.mkdtemp(prefix="d", dir=ctx.scratch)
        # Relative to the working directory: a unix socket path is capped
        # near 100 bytes and the checkout may sit deep.
        address = os.path.relpath(os.path.join(directory, "s"))
        env = dict(os.environ, PYTHONPATH=host.SRC, REPRO_CACHE=store)
        env.pop("REPRO_SERVICE", None)
        log = open(os.path.join(directory, "daemon.log"), "w")
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness", "serve",
             "--socket", address, "--workers", str(ctx.jobs)],
            env=env, stdout=log, stderr=subprocess.STDOUT)
        ctx.state["daemon"] = (proc, log, address)
        client = ServiceClient(address)
        while not client.ping():
            if proc.poll() is not None or time.perf_counter() - start > 60:
                raise RuntimeError(f"daemon did not come up, see {log.name}")
            time.sleep(0.005)
        seconds = time.perf_counter() - start
        os.environ["REPRO_SERVICE"] = address
        return seconds

    def _shutdown(self, ctx: Context) -> float:
        """Stop the daemon and wait for it; seconds it took."""
        from repro.service import ServiceClient, ServiceError

        daemon = ctx.state.pop("daemon", None)
        os.environ.pop("REPRO_SERVICE", None)
        if daemon is None:
            return 0.0
        proc, log, address = daemon
        start = time.perf_counter()
        try:
            ServiceClient(address).shutdown()
            proc.wait(timeout=20)
        except (ServiceError, OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            log.close()
        return time.perf_counter() - start

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        del os.environ["REPRO_CACHE"]  # the daemon's, not this client's
        self._boot(ctx, ctx.state["store"])
        # The first pass after boot reads the store at submit and fills
        # the job table; every later pass is deduplicated against it, so
        # the first one is set-up, not steady state.
        self.op(ctx)

    def teardown(self, ctx: Context) -> None:
        self._shutdown(ctx)

    def trace(self, ctx: Context, tracer: Tracer) -> "tuple[Op, Layers]":
        from repro import api
        from repro.harness.cache import open_cache
        from repro.service import ServiceClient

        # setup() booted a daemon on the filled store; the traced pass
        # wants one on an empty store first, for the cold comparison.
        self._shutdown(ctx)
        filled = open_cache(ctx.state["store"]).load_all()
        cold_specs = _cold_specs(ctx)
        out: Layers = {}
        with tracer.span(self.name):
            os.environ["REPRO_CACHE"] = _fresh_store(ctx)
            with tracer.span("cold.in_process") as local:
                _cold_pass(ctx, cold_specs)
            del os.environ["REPRO_CACHE"]
            store = _fresh_store(ctx)
            with tracer.span("daemon.boot"):
                out["service.boot_s"] = self._boot(ctx, store)
            with tracer.span("cold.daemon") as remote:
                cold = _cold_pass(ctx, cold_specs)
            out["service.overhead_s"] = remote.seconds - local.seconds
            open_cache(store).store_many(
                {k: v for k, v in filled.items()
                 if k not in {r.spec_key for r in cold}})
            first, handle, _ = self._traced_pass(ctx, tracer, "first_pass",
                                                 out)
            out["service.first_pass_s"] = first.wall_s
            rows = api.status(handle)
            out["service.store_hit_frac"] = (
                sum(1 for row in rows if row["source"] == "cache")
                / len(rows))
            op, _, _ = self._traced_pass(ctx, tracer, "warm_pass", out)
            client = ServiceClient(os.environ["REPRO_SERVICE"])
            with tracer.span("round_trips"):
                trips, errors = _round_trips(
                    client, ctx.state["specs"], ctx.sizes["round_trips"])
            out["service.respawns"] = client.info()["respawns"]
            with tracer.span("daemon.shutdown"):
                out["service.shutdown_s"] = self._shutdown(ctx)
        ordered = sorted(trips)
        edge = max(1, len(trips) // 10)
        out["service.rtt_ms_p50"] = statistics.median(trips) * 1e3
        out["service.rtt_ms_p99"] = ordered[
            min(len(ordered) - 1, int(len(ordered) * 0.99))] * 1e3
        out["service.rtt_drift"] = (
            statistics.median(trips[-edge:]) / statistics.median(trips[:edge]))
        out["model.speedup_pct"] = _mean_speedup_pct(cold)
        return Op(
            parts=op.parts, kcycles=op.kcycles, payload=op.payload,
            attempted=first.attempted + op.attempted + len(trips),
            failed=first.failed + op.failed + errors
            + sum(1 for r in cold if r.failed),
        ), out


def _round_trips(client, specs: list, count: int):
    """``count`` single-spec submit -> results round trips, one connection
    at a time; returns (seconds per trip, trips that came back wrong)."""
    trips, errors = [], 0
    for index in range(count):
        spec = specs[index % len(specs)]
        start = time.perf_counter()
        job = client.submit([spec])[0]
        row = client.results([job["job_id"]])[0]
        trips.append(time.perf_counter() - start)
        errors += row.get("state") != "done" or row.get("result") is None
    return trips, errors


ALL: Dict[str, Workload] = {
    w.name: w for w in (
        TrafficWorkload("traffic_sat16", ["BASELINE", "COMPLETE_NOACK"],
                        "sat_rate", "sat_cycles"),
        TrafficWorkload("traffic_idle16", ["COMPLETE_NOACK"],
                        "idle_rate", "idle_cycles"),
        CmpWorkload("cmp16_canneal", 16, ["BASELINE", "COMPLETE_NOACK"],
                    "canneal", "cmp16_quanta", observed=True),
        CmpWorkload("cmp64_fft", 64, ["COMPLETE_NOACK"], "fft",
                    "cmp64_quanta", sharded=True),
        SweepCold(),
        SweepWarm(),
        Service(),
    )
}
