"""Timed circuit reservations (section 4.7): windows, slack, delay,
postponement, and window misses."""

from repro.circuits.table import CircuitEntry, CircuitWalk, HopRecord
from repro.noc.network import Network
from repro.noc.topology import Port
from repro.sim.config import SystemConfig, Variant


def reply_of(c, req):
    replies = [m for _, m in c.deliveries
               if m.vn == 1 and m.circuit_key == req.circuit_key]
    assert len(replies) == 1
    return replies[0]


def test_exact_window_with_zero_slack(chip):
    """With no contention the optimistic estimate is cycle-exact."""
    c = chip(Variant.TIMED_NOACK)
    req = c.request(0, 15)
    c.run_until_drained()
    reply = reply_of(c, req)
    assert reply.outcome == "on_circuit"
    assert reply.network_latency == 20  # full circuit speed
    assert reply.queueing_latency == 1  # no window wait needed


def test_windows_expire_and_free_storage(chip):
    c = chip(Variant.TIMED_NOACK, turnaround=7)
    c.request(0, 15)
    c.run_until_drained()
    # run past all windows; lazy expiry purges on next count
    c.run(200)
    assert c.net.circuit_entries() == 0


def test_live_circuit_probe_is_read_only():
    """Counting live entries (the telemetry gauge, the crash report, the
    status line) must not purge the expired ones it counts out."""
    net = Network(SystemConfig(n_cores=16).with_variant(Variant.TIMED_NOACK))
    key = (4, 0x80, 1)
    net.policy.tables[5 * net.core.stride + Port.EAST][key] = CircuitEntry(
        key, Port.EAST, Port.WEST, built_cycle=0,
        window_start=10, window_end=20)
    assert net.live_circuit_entries(100) == 0
    assert net.circuit_entries() == 1


def test_delayed_reply_misses_window_and_is_undone(chip):
    """A reply later than its window must go packet-switched (undone)."""
    c = chip(Variant.TIMED_NOACK, turnaround=7)
    req = c.request(0, 15)
    # Run until the request is delivered but its reply has not fired yet,
    # then postpone the pending reply far beyond its reserved windows.
    c.run(40)
    assert c._timers, "request should be delivered with the reply pending"
    c._timers = [(due + 300, msg) for due, msg in c._timers]
    c.run_until_drained(20000)
    reply = reply_of(c, req)
    assert reply.outcome == "undone"
    assert not reply.uses_circuit
    assert c.stats.counter("circuit.window_missed") == 1


def test_slack_absorbs_moderate_delay(chip):
    c = chip(Variant.SLACK4_NOACK, turnaround=7)
    req = c.request(0, 15)
    c.run(40)
    assert c._timers
    # path has 6 hops -> slack budget = 4 * 6 = 24 cycles
    c._timers = [(due + 20, msg) for due, msg in c._timers]
    c.run_until_drained(20000)
    reply = reply_of(c, req)
    assert reply.outcome == "on_circuit"


def test_slack_does_not_absorb_excess_delay(chip):
    c = chip(Variant.SLACK1_NOACK, turnaround=7)
    req = c.request(0, 15)
    c.run(40)
    assert c._timers
    c._timers = [(due + 100, msg) for due, msg in c._timers]
    c.run_until_drained(20000)
    assert reply_of(c, req).outcome == "undone"


def test_postponed_circuits_force_wait(chip):
    c = chip(Variant.POSTPONED1_NOACK)
    req = c.request(0, 15)
    c.run_until_drained()
    reply = reply_of(c, req)
    assert reply.outcome == "on_circuit"
    # 6 hops -> postponement of 6 cycles; +1 for the enqueue-to-send cycle
    assert reply.queueing_latency == 7
    assert reply.network_latency == 20


def test_timed_windows_allow_output_sharing_in_disjoint_slots(chip):
    """The whole point of timed reservations: circuits that would conflict
    untimed can coexist when their time slots do not overlap."""
    untimed = chip(Variant.COMPLETE, turnaround=600)
    a = untimed.request(0, 15, addr=0x100)
    untimed.run(90)
    b = untimed.request(12, 3, addr=0x200)
    untimed.run(90)
    untimed_conflict = b.walk.failed

    timed = chip(Variant.TIMED_NOACK, turnaround=600)
    ta = timed.request(0, 15, addr=0x100)
    timed.run(90)
    tb = timed.request(12, 3, addr=0x200)
    timed.run(90)
    if untimed_conflict:
        # the same pair must be reservable with timed windows, because the
        # two replies pass shared routers hundreds of cycles apart
        assert tb.walk is not None and not tb.walk.failed
    untimed.run_until_drained(30000)
    timed.run_until_drained(30000)


def test_feasible_departure_math():
    walk = CircuitWalk(key=(0, 0x40, 1), reply_flits=5, path_hops=2,
                       turnaround=7)
    # two hops: windows for routers R0 (i=0) and R1=Rn (i=1)
    walk.hops.append(HopRecord(0, Port.EAST, Port.LOCAL, True,
                               window_start=120, window_end=130))
    walk.hops.append(HopRecord(1, Port.LOCAL, Port.WEST, True,
                               window_start=118, window_end=128))
    # head reaches Rn at t+2 and R0 at t+4
    depart = walk.feasible_departure(0, circuit_hop_cycles=2, ni_link_cycles=2)
    assert depart is not None
    # check: head at R1 = depart+2 >= 118, tail = +4 <= 128
    assert depart + 2 >= 118 and depart + 2 + 4 <= 128
    assert depart + 4 >= 120 and depart + 4 + 4 <= 130
    # a reply that is ready too late cannot use the circuit
    assert walk.feasible_departure(1000, 2, 2) is None


def test_feasible_departure_waits_for_future_window():
    walk = CircuitWalk(key=(0, 0x40, 1), reply_flits=1, path_hops=0,
                       turnaround=7)
    walk.hops.append(HopRecord(0, Port.LOCAL, Port.LOCAL, True,
                               window_start=50, window_end=50))
    assert walk.feasible_departure(10, 2, 2) == 48
