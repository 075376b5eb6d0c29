"""Unit tests for the unified telemetry subsystem (repro.telemetry)."""

import json
import os

import pytest

from repro.harness.experiment import RunResult, RunSpec
from repro.noc.traffic import RequestReplyTraffic
from repro.sim.config import SystemConfig, Variant
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats
from repro.telemetry import (
    KernelProfiler,
    MetricRegistry,
    MetricSampler,
    SpanRecorder,
    Telemetry,
    TelemetryConfig,
    counter_rate,
    gauge,
    histogram_percentile_delta,
    mean_delta,
    ratio_delta,
)


# ----------------------------------------------------------------------
# Metric probes and registry.
# ----------------------------------------------------------------------
def test_probe_factories_report_interval_values():
    stats = Stats()
    registry = MetricRegistry()
    registry.add_probe("rate", counter_rate(stats, "flits", interval=10))
    registry.add_probe("hit_rate", ratio_delta(stats, "hits", "total"))
    registry.add_probe("lat", mean_delta(stats, "lat"))
    registry.add_probe("p95", histogram_percentile_delta(stats, "dist", 95))
    registry.add_probe("level", gauge(lambda cycle: 7))

    stats.bump("flits", 20)
    stats.bump("hits", 3)
    stats.bump("total", 4)
    stats.observe("lat", 10)
    stats.observe("lat", 30)
    for v in range(100):
        stats.record("dist", v)
    registry.sample(10)

    # second interval: different activity, deltas must not leak
    stats.bump("flits", 5)
    stats.bump("total", 2)
    stats.observe("lat", 100)
    stats.record("dist", 1000)
    registry.sample(20)

    assert registry.cycles == [10, 20]
    assert registry.series("rate") == [2.0, 0.5]
    assert registry.series("hit_rate") == [0.75, 0.0]
    assert registry.series("lat") == [20.0, 100.0]
    assert registry.series("p95")[0] == 94  # 95th of 0..99
    assert registry.series("p95")[1] == 1000  # only the fresh sample
    assert registry.series("level") == [7, 7]


def test_interval_percentile_empty_interval_is_zero():
    stats = Stats()
    probe = histogram_percentile_delta(stats, "dist", 50)
    stats.record("dist", 42)
    assert probe(10) == 42
    assert probe(20) == 0.0  # nothing new this interval


def test_registry_rejects_duplicates_and_exports(tmp_path):
    registry = MetricRegistry()
    registry.add_probe("a", gauge(lambda c: 1.5))
    with pytest.raises(ValueError):
        registry.add_probe("a", gauge(lambda c: 2))
    registry.sample(100)
    assert registry.rows() == [[100, 1.5]]
    csv_path = registry.write_csv(str(tmp_path / "m.csv"))
    json_path = registry.write_json(str(tmp_path / "m.json"))
    assert open(csv_path).read().splitlines()[0] == "cycle,a"
    assert json.load(open(json_path)) == {"cycle": [100], "a": [1.5]}


class _Idle:
    """Component that never has work (sleeps forever once registered)."""

    def tick(self, cycle):
        pass

    def next_wake(self, cycle):
        return None


def test_sampler_cadence_on_kernel(tmp_path):
    sim = Simulator()
    sim.add(_Idle())
    registry = MetricRegistry()
    registry.add_probe("cycle_echo", gauge(lambda cycle: cycle))
    sampler = MetricSampler(registry, interval=10).attach(sim)
    sim.run(35)
    # exact cadence even though the only component sleeps (fast-forward
    # is bounded by the sampler's next_due)
    assert registry.cycles == [10, 20, 30]
    assert registry.series("cycle_echo") == [10, 20, 30]
    sampler.detach()
    sim.run(20)
    assert registry.cycles == [10, 20, 30]  # detached: no more samples
    assert sampler.next_due(15) == 20
    assert sampler.next_due(20) == 20
    assert sampler.next_due(0) == 10
    with pytest.raises(ValueError):
        MetricSampler(registry, interval=0)


# ----------------------------------------------------------------------
# Span recorder.
# ----------------------------------------------------------------------
def test_span_recorder_full_lifecycle(chip):
    c = chip(variant=Variant.COMPLETE_NOACK)
    recorder = SpanRecorder()
    for router in c.net.routers:
        router.observer = recorder
    for ni in c.net.interfaces:
        ni.observer = recorder
    c.request(0, 5)
    c.run_until_drained()
    spans = {s.cls: s for s in recorder.closed}
    assert set(spans) == {"req", "crep"}
    req = spans["req"]
    assert req.kind == "REQUEST" and req.src == 0 and req.dest == 5
    assert req.enqueued <= req.injected <= req.ejected
    assert req.reservations, "circuit-building request placed no reservation"
    crep = spans["crep"]
    assert crep.on_circuit and crep.plan_kind == "circuit"
    assert crep.hits, "circuit reply saw no circuit-check hits"
    assert crep.queue_cycles >= 0 and crep.net_cycles > 0

    trace = recorder.chrome_trace()
    events = trace["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"M", "X", "i"} <= phases
    slices = [e for e in events if e["ph"] == "X"]
    assert all(e["dur"] >= 1 and e["ts"] >= 0 for e in slices)
    table = recorder.breakdown_table()
    assert "crep" in table and "hits/msg" in table


def test_span_recorder_respects_limit(chip):
    c = chip(variant=Variant.BASELINE)
    recorder = SpanRecorder(limit=1)
    for ni in c.net.interfaces:
        ni.observer = recorder
    c.request(0, 1, builds_circuit=False)
    c.request(2, 3, builds_circuit=False)
    c.run_until_drained()
    assert len(recorder.closed) == 1
    assert recorder.dropped >= 1
    assert "not recorded" in recorder.breakdown_table()


# ----------------------------------------------------------------------
# Kernel profiler.
# ----------------------------------------------------------------------
def test_profiler_attributes_and_restores():
    traffic = RequestReplyTraffic(SystemConfig(n_cores=16),
                                  requests_per_node_per_kcycle=30.0, seed=3)
    profiler = KernelProfiler().attach(traffic.sim)
    with pytest.raises(RuntimeError):
        profiler.attach(traffic.sim)
    traffic.run(400)
    report = profiler.report()  # live snapshot
    assert report["classes"]["RouterCore"]["ticks"] > 0
    profiler.detach()
    # original bound ticks restored: hot loop calls the component again
    for slot in traffic.sim._slots:
        assert slot.tick.__self__ is slot.component
    core = traffic.net.core
    assert core.ni_stage.__self__ is core
    report = profiler.report()
    assert report["wall_seconds"] > 0
    assert set(report["groups"]) <= {"router", "ni", "driver", "coherence",
                                     "other"}
    assert report["classes"]["RouterCore"]["group"] == "router"
    assert report["classes"]["RequestReplyTraffic"]["group"] == "driver"
    # The core's NI stage is its own row: NI bodies run, not kernel ticks.
    ni = report["classes"]["NetworkInterface"]
    assert ni["group"] == "ni" and ni["components"] == 16
    assert report["groups"]["ni"]["ticks"] == ni["ticks"] > 0
    assert ni["seconds"] > 0
    total_ticks = sum(r["ticks"] for name, r in report["classes"].items()
                      if name != "NetworkInterface")
    assert total_ticks == report["ticks_run"]
    table = profiler.table()
    assert "RouterCore" in table and "skip ratio" in table
    profiler.detach()  # idempotent


# ----------------------------------------------------------------------
# Facade.
# ----------------------------------------------------------------------
def test_facade_attach_detach_and_export(tmp_path):
    config = TelemetryConfig(
        interval=100,
        out_dir=str(tmp_path / "telemetry"),
        trace_dir=str(tmp_path / "trace"),
    )
    traffic = RequestReplyTraffic(SystemConfig(n_cores=16),
                                  requests_per_node_per_kcycle=30.0, seed=3)
    telem = Telemetry(config).attach(traffic)
    with pytest.raises(RuntimeError):
        telem.attach(traffic)
    assert all(r.observer is telem.spans for r in traffic.net.routers)
    traffic.run(500)
    telem.detach()
    assert all(r.observer is None for r in traffic.net.routers)
    assert all(ni.observer is None for ni in traffic.net.interfaces)
    assert not traffic.sim._watchdogs
    assert len(telem.registry) >= 4
    streams = telem.registry.names()
    assert "circuit_hit_rate" in streams and len(streams) >= 5
    assert telem.spans.closed, "no message spans recorded"

    paths = telem.export("unit")
    assert set(paths) == {"metrics_csv", "metrics_json", "trace",
                          "breakdown", "profile"}
    for path in paths.values():
        assert os.path.exists(path)
    trace = json.load(open(paths["trace"]))
    assert trace["traceEvents"], "empty Chrome trace"
    telem.detach()  # idempotent


def test_facade_requires_a_network():
    with pytest.raises(ValueError):
        Telemetry().attach(Simulator())


def test_facade_disabled_instruments():
    config = TelemetryConfig(metrics=False, spans=False, profile=False)
    assert not config.enabled
    traffic = RequestReplyTraffic(SystemConfig(n_cores=16),
                                  requests_per_node_per_kcycle=10.0, seed=1)
    telem = Telemetry(config).attach(traffic)
    assert telem.registry is None and telem.spans is None
    assert telem.profiler is None
    assert traffic.net.routers[0].observer is None
    assert telem.export("nothing") == {}
    telem.detach()


# ----------------------------------------------------------------------
# RunSpec / RunResult integration surface.
# ----------------------------------------------------------------------
def test_runspec_telemetry_is_cache_key_neutral(monkeypatch):
    plain = RunSpec(16, Variant.BASELINE, "fft")
    observed = RunSpec(16, Variant.BASELINE, "fft",
                       telemetry=TelemetryConfig())
    assert plain.key() == observed.key()
    assert not plain.observed and observed.observed
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    scaled = observed.scaled()
    assert scaled.telemetry == observed.telemetry
    assert "/" not in observed.label()


def test_run_result_histogram_accessors():
    result = RunResult(
        spec_key="k", n_cores=16, variant="Baseline", workload="fft",
        exec_cycles=100,
        counters={"msg.count.GETS": 3, "msg.count.GETX": 1, "other": 9},
        means={"lat.net.req.p95": 12.5},
        histograms={
            "lat.net.crep": {
                "bucket_width": 1,
                "count": 4,
                "buckets": {"10": 2, "30": 2},
            }
        },
    )
    hist = result.histogram("lat.net.crep")
    assert hist.count == 4
    assert result.percentile("lat.net.crep", 50) == 10
    assert result.percentile("lat.net.crep", 100) == 30
    # pre-histogram cache entries fall back to the precomputed means
    assert result.percentile("lat.net.req", 95) == 12.5
    assert result.percentile("lat.net.norep", 95) == 0.0
    assert result.histogram("lat.net.norep") is None
    assert result.counters_with_prefix("msg.count.") == {
        "msg.count.GETS": 3, "msg.count.GETX": 1,
    }
    # round-trips through the JSON cache shape
    again = RunResult.from_json(json.loads(json.dumps(result.to_json())))
    assert again.percentile("lat.net.crep", 100) == 30
