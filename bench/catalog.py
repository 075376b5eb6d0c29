"""Names fixed by this benchmark: workloads, metrics, sizes.

``BENCHMARK.json`` at the repository root is ``manifest()`` written out
(``python3 -m bench manifest`` prints it; ``bench/test_bench.py`` checks
the two agree).  Later issues refer to these names, so renaming one is a
benchmark change of its own.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

#: Seconds one contract run measures (``--seconds``).
RUN_SECONDS = 24

#: Operations a run completes at least, however long each one takes.
MIN_OPS = 3


class Workload(NamedTuple):
    name: str
    why: str
    #: In ``BENCHMARK.json``, so a driver gates changes on it.  The
    #: contract's cap on total run time leaves room for four workloads at
    #: a run length that repeats on a shared host (README); the others run
    #: in the all-workloads mode only, and carry the per-layer metrics of
    #: their layers.
    gated: bool = True


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end: share of the parent's median the metric may worsen by.
    #: Per-layer metrics carry no bound (None).
    bound: float = None
    #: "measured" = a direct timing or an exact count; "derived" = a ratio
    #: of two measured numbers.  Nothing here is projected or modelled.
    kind: str = "measured"


WORKLOADS: List[Workload] = [
    Workload(
        "traffic_sat16",
        "Request-reply traffic on the 4x4 mesh at saturation, Baseline then "
        "Complete_NoAck: router, allocator and NI at full size; harness, "
        "store and service changes must show nothing"),
    Workload(
        "traffic_idle16",
        "Same driver at the paper's light load: components mostly asleep, so "
        "kernel wake/sleep/fast-forward does the work; a router change that "
        "adds per-wake cost loses here"),
    Workload(
        "cmp16_canneal",
        "api.run of memory-bound canneal on the paper's 16-core chip, "
        "Baseline then Complete_NoAck: the user's unit of work, whole stack, "
        "gives the simulated speed-up next to host time"),
    Workload(
        "cmp64_fft",
        "api.run of fft on the paper's 64-core chip, where system build and "
        "functional prewarm and per-router cost scale differently from 16 "
        "cores",
        gated=False),
    Workload(
        "sweep16_cold",
        "12 specs (6 workloads x Baseline/Complete_NoAck) through api.submit "
        "with a worker pool into a fresh sharded store: pool fan-out, "
        "pickling and store puts around real simulation",
        gated=False),
    Workload(
        "sweep16_warm",
        "256 stored results requested again from an empty memo, then table1 "
        "+ figure9 + render: never enters the simulator, so a simulator "
        "speed-up must leave it unchanged"),
    Workload(
        "service16",
        "The same 256-key warm pass through a daemon booted as its own "
        "process: differs from sweep16_warm by the service layer alone "
        "(wire protocol, job table, dedup)",
        gated=False),
]

END_TO_END: List[Metric] = [
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

PER_LAYER: List[Metric] = [
    # repro.sim.kernel, from KernelProfiler.report()
    Metric("kernel.self_s", "s", "lower"),
    Metric("kernel.ns_per_tick", "ns", "lower", kind="derived"),
    Metric("kernel.ticks_run", "count", "lower"),
    Metric("kernel.skip_ratio", "fraction", "higher", kind="derived"),
    # repro.noc.router / repro.noc.interface, profiler groups
    Metric("router.busy_s", "s", "lower"),
    Metric("router.ticks", "count", "lower"),
    Metric("router.us_per_tick", "us", "lower", kind="derived"),
    Metric("ni.busy_s", "s", "lower"),
    Metric("ni.ticks", "count", "lower"),
    Metric("ni.us_per_tick", "us", "lower", kind="derived"),
    Metric("noc.flits_delivered", "count", "higher"),
    Metric("noc.xbar_traversals", "count", "lower"),
    Metric("noc.host_us_per_flit", "us", "lower", kind="derived"),
    # repro.circuits, Stats counters
    Metric("circuits.reservations", "count", "higher"),
    Metric("circuits.reservation_failed", "count", "lower"),
    Metric("circuits.undo_hops", "count", "lower"),
    Metric("circuits.on_circuit_frac", "fraction", "higher", kind="derived"),
    Metric("circuits.host_overhead_ratio", "ratio", "lower", kind="derived"),
    # repro.coherence / repro.cpu / repro.noc.traffic, profiler classes
    Metric("coherence.l1_busy_s", "s", "lower"),
    Metric("coherence.l2_busy_s", "s", "lower"),
    Metric("coherence.mem_busy_s", "s", "lower"),
    Metric("coherence.ticks", "count", "lower"),
    Metric("cpu.busy_s", "s", "lower"),
    Metric("cpu.ticks", "count", "lower"),
    Metric("traffic.busy_s", "s", "lower"),
    # repro.system, spans around the calls run_experiment's plain path makes
    Metric("system.build_s", "s", "lower"),
    Metric("system.prewarm_s", "s", "lower"),
    Metric("system.warmup_s", "s", "lower"),
    Metric("system.measure_s", "s", "lower"),
    # repro.harness
    Metric("harness.assemble_ms", "ms", "lower"),
    Metric("harness.render_ms", "ms", "lower"),
    Metric("harness.result_bytes", "bytes", "lower"),
    Metric("harness.store_put_ms", "ms", "lower"),
    Metric("harness.store_get_ms", "ms", "lower"),
    Metric("harness.pool_efficiency", "fraction", "higher", kind="derived"),
    # repro.service
    Metric("service.boot_s", "s", "lower"),
    Metric("service.shutdown_s", "s", "lower"),
    Metric("service.overhead_s", "s", "lower", kind="derived"),
    Metric("service.first_pass_s", "s", "lower"),
    Metric("service.rtt_ms_p50", "ms", "lower"),
    Metric("service.rtt_ms_p99", "ms", "lower"),
    Metric("service.rtt_drift", "ratio", "lower", kind="derived"),
    Metric("service.store_hit_frac", "fraction", "higher", kind="derived"),
    Metric("service.respawns", "count", "lower"),
    # repro.sim.shard
    Metric("shard.wall_ratio_2", "ratio", "lower", kind="derived"),
    Metric("shard.worker_cpu_s", "s", "lower"),
    Metric("shard.wait_frac", "fraction", "lower", kind="derived"),
    Metric("shard.respawns", "count", "lower"),
    # repro.telemetry
    Metric("telemetry.profiler_overhead_frac", "fraction", "lower",
           kind="derived"),
    Metric("telemetry.observed_overhead_frac", "fraction", "lower",
           kind="derived"),
    # simulated results: exact for a seed, must not move under a
    # simulator-only change
    Metric("model.exec_kcycles", "kcycles", "lower"),
    Metric("model.sim_kcycles_per_s", "kcycles/s", "higher", kind="derived"),
    Metric("model.speedup_pct", "%", "higher", kind="derived"),
    Metric("model.reply_lat_cycles", "cycles", "lower"),
    Metric("model.fidelity_err_pp", "pp", "lower", kind="derived"),
    # the machine and the trace itself
    Metric("host.calibration_iters_per_s", "1/s", "higher"),
    Metric("host.noise_frac", "fraction", "lower", kind="derived"),
    Metric("trace.wall_s", "s", "lower"),
    Metric("trace.self_time_frac", "fraction", "higher", kind="derived"),
]

#: Sizes per mode.  "full" is what BENCHMARK.json runs; "quick" keeps the
#: code paths and names at sizes that finish in well under 30 s overall.
SIZES: Dict[str, Dict[str, object]] = {
    "full": {
        "sat_rate": 48.0, "sat_cycles": 3_000,
        "idle_rate": 4.0, "idle_cycles": 60_000,
        "cmp16_quanta": (1_500, 400),
        "cmp64_quanta": (500, 150),
        "sweep_scale": 0.15,
        "sweep_workloads": 6,
        "store_entries": 256,
        "round_trips": 2_000,
    },
    "quick": {
        "sat_rate": 48.0, "sat_cycles": 400,
        "idle_rate": 4.0, "idle_cycles": 6_000,
        "cmp16_quanta": (200, 100),
        "cmp64_quanta": (200, 100),
        "sweep_scale": 0.07,
        "sweep_workloads": 2,
        "store_entries": 64,
        "round_trips": 100,
    },
}


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS if w.gated],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
