"""Tracer, utilization heatmap and load sampler (repro.telemetry probes)."""

from repro.telemetry import (
    attach_tracer,
    detach_tracer,
    reset_utilization,
    utilization_heatmap,
)
from repro.noc.flit import Message
from repro.noc.network import Network
from repro.sim.config import SystemConfig, Variant


def run_traffic(net, pairs, cycles=200):
    for src, dest in pairs:
        net.interfaces[src].enqueue(Message(src, dest, 0, 1, "REQ"), 0)
    for cycle in range(1, cycles):
        net.core.tick(cycle)


def test_tracer_records_crossbar_events():
    net = Network(SystemConfig(n_cores=16))
    events = attach_tracer(net)
    run_traffic(net, [(0, 3)])
    # one flit crosses routers 0,1,2,3: four traversals
    assert len(events) == 4
    nodes = [e[1] for e in events]
    assert sorted(nodes) == [0, 1, 2, 3]
    assert all(e[3] == "REQ" for e in events)
    detach_tracer(net)
    run_traffic(net, [(4, 7)])
    assert len(events) == 4  # no longer recording


def test_custom_callback():
    net = Network(SystemConfig(n_cores=16))
    seen = []
    attach_tracer(net, lambda cycle, router, port, flit: seen.append(router.node))
    run_traffic(net, [(0, 1)])
    assert seen == [0, 1]


def test_tracers_chain_and_detach_in_lifo_order():
    net = Network(SystemConfig(n_cores=16))
    first, second = [], []
    attach_tracer(net, lambda cycle, r, port, flit: first.append(r.node))
    attach_tracer(net, lambda cycle, r, port, flit: second.append(r.node))
    run_traffic(net, [(0, 1)])
    # both layers observe every traversal, previous-first
    assert first == [0, 1]
    assert second == [0, 1]
    detach_tracer(net)  # pops the second layer only
    run_traffic(net, [(4, 5)])
    assert first == [0, 1, 4, 5]
    assert second == [0, 1]
    detach_tracer(net)  # back to no tracer at all
    run_traffic(net, [(8, 9)])
    assert first == [0, 1, 4, 5]
    assert all(r.tracer is None for r in net.routers)


def test_detach_without_tracer_is_harmless():
    net = Network(SystemConfig(n_cores=16))
    detach_tracer(net)
    assert all(r.tracer is None for r in net.routers)


def test_heatmap_shows_hot_routers():
    net = Network(SystemConfig(n_cores=16))
    run_traffic(net, [(0, 3), (4, 7), (8, 11)])
    text = utilization_heatmap(net)
    assert "peak" in text
    assert len(text.splitlines()) == 5  # title + 4 mesh rows
    # corner router 15 saw nothing
    assert net.routers[15].forwarded == 0
    assert net.routers[1].forwarded > 0
    reset_utilization(net)
    assert all(r.forwarded == 0 for r in net.routers)


def test_load_sampler_measures_injection():
    import pytest

    from repro.noc.traffic import RequestReplyTraffic

    from repro.telemetry import LoadSampler

    config = SystemConfig(n_cores=16)
    traffic = RequestReplyTraffic(config, requests_per_node_per_kcycle=20.0,
                                  seed=2)
    sampler = LoadSampler(traffic.net, interval=100)
    for _ in range(2000):
        traffic.run(1)
        sampler.tick(traffic.cycle)
    assert len(sampler.samples) >= 19
    assert sampler.mean_load() > 0
    text = sampler.sparkline()
    assert "peak" in text
    with pytest.raises(ValueError):
        LoadSampler(traffic.net, interval=0)


def test_load_sampler_idle_network():
    from repro.telemetry import LoadSampler

    net = Network(SystemConfig(n_cores=16))
    sampler = LoadSampler(net)
    assert sampler.mean_load() == 0.0
    assert sampler.sparkline() == "(no samples)"
