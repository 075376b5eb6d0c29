"""Unified observation API: metrics, message spans, kernel profiling.

One façade over every instrument:

    from repro.telemetry import Telemetry, TelemetryConfig

    telem = Telemetry(TelemetryConfig(interval=500))
    telem.attach(system)            # CmpSystem, RequestReplyTraffic,
    system.run_instructions(3000)   # or an explicit (sim, net) pair
    telem.detach()
    paths = telem.export("baseline_fft")
    print(telem.profiler.table())

Three instruments hang off the façade, each independently switchable in
:class:`TelemetryConfig`:

* :attr:`Telemetry.metrics` - a :class:`~repro.telemetry.metrics.MetricRegistry`
  of time-series probes (injection rate, throughput, buffer and
  circuit-table occupancy, interval circuit hit/miss/teardown rates,
  interval reply-latency percentiles) sampled by a read-only watchdog.
* :attr:`Telemetry.spans` - a :class:`~repro.telemetry.spans.SpanRecorder`
  observing message lifecycles through router/NI observer hooks, exported
  as Perfetto-loadable Chrome-trace JSON and a latency breakdown table.
* :attr:`Telemetry.profiler` - a :class:`~repro.telemetry.profiler.KernelProfiler`
  attributing wall-time and tick counts per component class.

All instruments are read-only observers: an attached Telemetry never
changes simulated behaviour, so stats counters and finish cycles remain
bit-identical to an unobserved run (enforced by tests).  When nothing is
attached the per-event cost is a single ``observer is None`` test at the
hook sites - the interactive probes in :mod:`repro.telemetry.probes`
(:func:`attach_tracer`, :func:`utilization_heatmap`, :func:`sleep_report`)
share the same property.
"""

from __future__ import annotations

import os
from dataclasses import field
from typing import Callable, Dict, Optional

from repro._record import record
from repro.telemetry.metrics import (
    MetricRegistry,
    MetricSampler,
    counter_rate,
    gauge,
    histogram_percentile_delta,
    mean_delta,
    ratio_delta,
)
from repro.telemetry.probes import (
    TraceEvent,
    attach_tracer,
    detach_tracer,
    reset_utilization,
    sleep_report,
    utilization_heatmap,
)
from repro.telemetry.profiler import KernelProfiler
from repro.telemetry.spans import MessageSpan, SpanRecorder

__all__ = [
    "Telemetry",
    "TelemetryConfig",
    "MetricRegistry",
    "MetricSampler",
    "SpanRecorder",
    "MessageSpan",
    "KernelProfiler",
    "TraceEvent",
    "attach_tracer",
    "detach_tracer",
    "reset_utilization",
    "sleep_report",
    "utilization_heatmap",
    "gauge",
    "counter_rate",
    "ratio_delta",
    "mean_delta",
    "histogram_percentile_delta",
]


@record(frozen=True)
class TelemetryConfig:
    """What to observe and where to write it.

    The default interval (1000 cycles) matches the production cadence of
    the invariant monitor: fine enough to resolve circuit warm-up within
    a run, coarse enough that sampling costs little.  Observation has a
    5% budget (``telemetry.observed_overhead_frac`` in
    ``python3 -m bench --trace``), but nothing gates it, and spans and
    the profiler currently exceed it.
    """

    metrics: bool = True
    spans: bool = True
    profile: bool = True
    interval: int = 1000
    #: Also record one buffer-occupancy stream per router (n_nodes extra
    #: streams; off by default to keep exports small on big meshes).
    per_router: bool = False
    #: Span-recording bound; messages beyond it are counted, not stored.
    span_limit: int = 50_000
    out_dir: str = os.path.join("out", "telemetry")
    trace_dir: str = os.path.join("out", "trace")
    #: Live-sample subscriber ``fn(cycle, {name: value})`` registered on
    #: the metric registry at attach time.  Observation only -- it cannot
    #: change what is sampled, so streamed runs stay bit-identical.  The
    #: service daemon uses this to forward in-flight metric series.
    on_sample: Optional[Callable[[int, Dict[str, float]], None]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def enabled(self) -> bool:
        return self.metrics or self.spans or self.profile


class Telemetry:
    """The attachable observation bundle (see module docstring)."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.registry: Optional[MetricRegistry] = None
        self.sampler: Optional[MetricSampler] = None
        self.spans: Optional[SpanRecorder] = None
        self.profiler: Optional[KernelProfiler] = None
        self._net = None
        self._attached = False

    # -- lifecycle -----------------------------------------------------
    def attach(self, target, net=None) -> "Telemetry":
        """Attach to a simulation.

        ``target`` may be a :class:`~repro.system.CmpSystem`, a
        :class:`~repro.noc.traffic.RequestReplyTraffic`, or a bare
        :class:`~repro.sim.kernel.Simulator` (pass ``net=`` explicitly
        in that case).  Attach *after* any warmup phase: warmup ends
        with a stats reset, which would corrupt the interval deltas.
        """
        if self._attached:
            raise RuntimeError("telemetry already attached")
        sim = getattr(target, "sim", target)
        if net is None:
            net = getattr(target, "network", None) or getattr(target, "net", None)
        if net is None:
            raise ValueError("cannot resolve a Network from target; pass net=")
        system = target if hasattr(target, "tiles") else None
        config = self.config
        self._net = net
        if config.metrics:
            self.registry = MetricRegistry()
            self._standard_probes(net, system)
            if config.on_sample is not None:
                self.registry.subscribe(config.on_sample)
            self.sampler = MetricSampler(self.registry, config.interval)
            self.sampler.attach(sim)
        if config.spans:
            self.spans = SpanRecorder(limit=config.span_limit)
            for router in net.routers:
                router.observer = self.spans
            for ni in net.interfaces:
                ni.observer = self.spans
        if config.profile:
            self.profiler = KernelProfiler()
            self.profiler.attach(sim)
        self._attached = True
        return self

    def detach(self) -> None:
        """Stop observing and restore every hook (idempotent)."""
        if not self._attached:
            return
        if self.sampler is not None:
            self.sampler.detach()
        if self.spans is not None and self._net is not None:
            for router in self._net.routers:
                router.observer = None
            for ni in self._net.interfaces:
                ni.observer = None
        if self.profiler is not None:
            self.profiler.detach()
        self._net = None
        self._attached = False

    # -- probe wiring --------------------------------------------------
    def _standard_probes(self, net, system) -> None:
        """Register the default metric streams against ``net``'s stats."""
        registry = self.registry
        stats = net.stats
        interval = self.config.interval
        registry.add_probe(
            "inj_rate", counter_rate(stats, "noc.flits_injected", interval)
        )
        registry.add_probe(
            "throughput", counter_rate(stats, "noc.flits_delivered", interval)
        )
        registry.add_probe("buffer_occupancy", gauge(
            lambda cycle: net.buffered_flits()
        ))
        for vn in range(len(net.config.noc.vcs_per_vn)):
            registry.add_probe(f"buf_vn{vn}", gauge(
                lambda cycle, _vn=vn: net.buffered_flits_by_vn()[_vn]
            ))
        if self.config.per_router:
            for router in net.routers:
                registry.add_probe(f"buf_r{router.node}", gauge(
                    lambda cycle, _r=router: _r.buffered_flits()
                ))
        registry.add_probe("circuit_entries", gauge(
            lambda cycle: net.live_circuit_entries(cycle)
        ))
        registry.add_probe("circuit_hit_rate", ratio_delta(
            stats, "circuit.outcome.on_circuit", "circuit.replies_total"
        ))
        registry.add_probe("circuit_miss_rate", ratio_delta(
            stats, "circuit.reservation_failed", "circuit.replies_total"
        ))
        registry.add_probe(
            "teardown_rate",
            counter_rate(stats, "circuit.entries_undone", interval),
        )
        registry.add_probe("reply_lat_mean", mean_delta(stats, "lat.net.crep"))
        registry.add_probe(
            "reply_lat_p95",
            histogram_percentile_delta(stats, "lat.net.crep", 95),
        )
        if system is not None:
            registry.add_probe("controller_backlog", gauge(
                lambda cycle: system.controller_backlog()
            ))

    # -- export --------------------------------------------------------
    def export(self, label: str) -> Dict[str, str]:
        """Write every enabled instrument's artifacts; returns the paths.

        ``label`` names the files (``<out_dir>/<label>_metrics.csv``,
        ``<trace_dir>/<label>.json``, ...); slashes are replaced so any
        spec key is usable as-is.
        """
        safe = label.replace(os.sep, "_").replace("/", "_")
        paths: Dict[str, str] = {}
        if self.registry is not None:
            base = os.path.join(self.config.out_dir, safe)
            paths["metrics_csv"] = self.registry.write_csv(base + "_metrics.csv")
            paths["metrics_json"] = self.registry.write_json(
                base + "_metrics.json"
            )
        if self.spans is not None:
            paths["trace"] = self.spans.write_chrome_trace(
                os.path.join(self.config.trace_dir, safe + ".json")
            )
            paths["breakdown"] = _write_text(
                os.path.join(self.config.out_dir, safe + "_breakdown.txt"),
                self.spans.breakdown_table(),
            )
        if self.profiler is not None:
            paths["profile"] = _write_text(
                os.path.join(self.config.out_dir, safe + "_profile.txt"),
                self.profiler.table(),
            )
        return paths


def _write_text(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path
