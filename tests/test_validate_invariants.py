"""Invariant monitor: silent on clean runs, loud on corrupted state."""

import pytest

from repro.circuits.table import CircuitEntry
from repro.noc.network import Network
from repro.noc.traffic import RequestReplyTraffic
from repro.sim.config import SystemConfig, Variant
from repro.sim.kernel import Simulator
from repro.validate import ALL_CHECKS, InvariantMonitor, InvariantViolation
from repro.validate.conformance import Cell


def _traffic(variant=Variant.COMPLETE_NOACK, rate=12.0, seed=3):
    config = SystemConfig(n_cores=16, seed=seed).with_variant(variant)
    return RequestReplyTraffic(config, rate, seed=seed)


@pytest.mark.parametrize(
    "variant",
    [Variant.BASELINE, Variant.COMPLETE_NOACK, Variant.SLACKDELAY1_NOACK],
    ids=lambda v: v.value,
)
def test_clean_run_has_zero_violations(variant, pinned):
    measured = pinned(Cell(variant, 12.0, 1500, seed=3), "monitored")
    assert measured["audit"]["checks_run"] >= 6
    assert measured["traffic"]["requests_sent"] > 0
    assert measured["traffic"]["replies_received"] > 0


def test_violation_carries_structure():
    err = InvariantViolation(
        "credit_conservation", "off by one", cycle=123,
        location="router3.EAST.vn1.vc0", details={"expected": 4},
    )
    assert err.check == "credit_conservation"
    assert err.cycle == 123
    assert err.location == "router3.EAST.vn1.vc0"
    assert err.details == {"expected": 4}
    assert err.report is None
    text = str(err)
    assert "[credit_conservation]" in text
    assert "router3.EAST.vn1.vc0" in text
    assert "(cycle 123)" in text


def test_monitor_interval_gating():
    traffic = _traffic()
    monitor = InvariantMonitor(traffic.net, interval=500)
    traffic.run(50)
    monitor(traffic.cycle)  # 50 % 500 != 0: skipped
    assert monitor.checks_run == 0
    monitor.check_now(traffic.cycle)
    assert monitor.checks_run == 1
    assert monitor.violations == 0


def test_attach_runs_checks_from_simulator_watchdog():
    net = Network(SystemConfig(n_cores=16))
    sim = Simulator()
    monitor = InvariantMonitor(net, interval=100)
    assert monitor.attach(sim) is monitor
    sim.run(301)
    assert monitor.checks_run >= 3
    assert monitor.violations == 0


def test_unknown_check_name_rejected():
    net = Network(SystemConfig(n_cores=16))
    with pytest.raises(ValueError):
        InvariantMonitor(net, checks=("flit_conservation", "bogus"))
    # every advertised check resolves to a method
    monitor = InvariantMonitor(net, checks=ALL_CHECKS)
    for check in ALL_CHECKS:
        assert callable(getattr(monitor, f"check_{check}"))


def test_flit_conservation_detects_counter_skew():
    traffic = _traffic(Variant.BASELINE)
    traffic.run(300)
    monitor = InvariantMonitor(traffic.net, interval=1)
    monitor.check_now(traffic.cycle)  # clean before corruption
    traffic.net.stats.bump("noc.flits_injected", 3)
    with pytest.raises(InvariantViolation) as exc_info:
        monitor.check_now(traffic.cycle)
    err = exc_info.value
    assert err.check == "flit_conservation"
    assert err.cycle == traffic.cycle
    assert monitor.violations == 1
    # forensics attached a structured crash report to the exception
    assert err.report is not None
    assert err.report.data["check"] == "flit_conservation"


def test_circuit_lifecycle_detects_planted_entry():
    traffic = _traffic(Variant.COMPLETE, rate=10.0)
    traffic.run(400)
    net = traffic.net
    node = 0
    in_port = net.routers[node].ports[0]
    table = net.policy.tables[node * net.core.stride + in_port]
    assert table is not None
    bogus_key = (99, 0xDEAD, 10 ** 9)
    out_port = next(p for p in net.routers[node].ports if p != in_port)
    table[bogus_key] = CircuitEntry(
        key=bogus_key, in_port=in_port, out_port=out_port,
        built_cycle=traffic.cycle,
    )
    monitor = InvariantMonitor(net, interval=1)
    with pytest.raises(InvariantViolation) as exc_info:
        monitor.check_now(traffic.cycle)
    assert exc_info.value.check == "circuit_lifecycle"


def test_credit_conservation_detects_leaked_credit():
    traffic = _traffic(Variant.BASELINE)
    traffic.run(300)
    monitor = InvariantMonitor(traffic.net, interval=1)
    monitor.check_now(traffic.cycle)
    bufferless = traffic.net.policy.bufferless_vcs()
    from repro.noc.topology import Port

    out_vc = next(
        vc
        for router in traffic.net.routers
        for port in router.ports
        if port is not Port.LOCAL
        for vn_row in router.outputs[port].vcs
        for vc in vn_row
        if (vc.vn, vc.index) not in bufferless and vc.credits > 0
    )
    out_vc.credits -= 1
    with pytest.raises(InvariantViolation) as exc_info:
        monitor.check_now(traffic.cycle)
    assert exc_info.value.check == "credit_conservation"
    assert "credit" in str(exc_info.value)


def test_system_level_run_including_coherence_checks(pinned):
    audit = pinned(Cell(Variant.COMPLETE_NOACK, "canneal", 150, warmup=50,
                        paper_caches=True), "monitored")["audit"]
    assert audit["checks_run"] > 0 and audit["self_acks_checked"] > 0
