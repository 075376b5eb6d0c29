"""Soak tests: sustained mixed traffic with invariant checking."""

import pytest

from repro.noc.traffic import RequestReplyTraffic
from repro.sim.config import SystemConfig, Variant

SOAK_VARIANTS = [
    Variant.BASELINE,
    Variant.FRAGMENTED,
    Variant.COMPLETE_NOACK,
    Variant.REUSE_NOACK,
    Variant.SLACKDELAY1_NOACK,
    Variant.POSTPONED1_NOACK,
    Variant.IDEAL,
]


@pytest.mark.parametrize("variant", SOAK_VARIANTS)
def test_soak_sustained_load(variant):
    """Thousands of transactions at moderate load: nothing lost, no state
    leaks, credits restored, latency accounting consistent."""
    config = SystemConfig(n_cores=16).with_variant(variant)
    traffic = RequestReplyTraffic(config, requests_per_node_per_kcycle=15.0,
                                  seed=11)
    traffic.run(6_000)
    traffic.drain()
    assert traffic.requests_sent > 800
    assert traffic.replies_received == traffic.requests_sent
    net = traffic.net
    assert net.in_flight() == 0
    assert net.live_circuit_entries(traffic.cycle) == 0
    # accounting: every latency sample is positive and bounded
    assert all(0 < lat < 5_000 for lat in traffic.reply_latencies)
    # stats self-consistency: every injected flit is delivered exactly
    # once, except scrounger relays which re-inject their 5 flits for the
    # second leg (delivery is only counted at the final destination)
    s = net.stats
    relayed = 5 * s.counter("circuit.scrounger_relays")
    assert (s.counter("noc.flits_injected")
            == s.counter("noc.flits_delivered") + relayed)
    # outcome conservation when circuits are in play
    if variant is not Variant.BASELINE:
        total = s.counter("circuit.replies_total")
        assert total == traffic.replies_received


def test_soak_buffers_and_vcs_fully_recovered():
    config = SystemConfig(n_cores=16).with_variant(Variant.FRAGMENTED)
    traffic = RequestReplyTraffic(config, requests_per_node_per_kcycle=25.0,
                                  seed=5)
    traffic.run(5_000)
    traffic.drain()
    for router in traffic.net.routers:
        assert router.buffered_flits() == 0
        assert router._busy_vcs == 0
        for _port, unit in router._input_units:
            assert not unit.busy_list
            for vn_row in unit.vcs:
                for vc in vn_row:
                    assert vc.stage.value == "I"
                    assert not vc.granted_pending


@pytest.mark.parametrize("variant", SOAK_VARIANTS)
def test_soak_invariant_checked(variant):
    """Sustained load with the invariant monitor auditing mid-flight
    state every 250 cycles: zero violations during the run and after
    drain (no false positives on any variant)."""
    from repro.validate import InvariantMonitor

    config = SystemConfig(n_cores=16).with_variant(variant)
    traffic = RequestReplyTraffic(config, requests_per_node_per_kcycle=15.0,
                                  seed=13)
    monitor = InvariantMonitor(traffic.net, interval=250)
    for _ in range(4_000):
        traffic.run(1)
        monitor(traffic.cycle)
    traffic.drain()
    monitor.check_now(traffic.cycle)
    assert monitor.violations == 0
    assert monitor.checks_run >= 16
    assert traffic.replies_received == traffic.requests_sent
