"""Complete Reactive Circuits: reservation, use, conflicts, undo."""

from repro.noc.routing import path_routers
from repro.sim.config import Variant


def reply_of(c, req):
    replies = [m for _, m in c.deliveries
               if m.vn == 1 and m.circuit_key == req.circuit_key]
    assert len(replies) == 1
    return replies[0]


def test_reply_rides_circuit_at_two_cycles_per_hop(chip):
    base = chip(Variant.BASELINE)
    breq = base.request(0, 15)
    base.run_until_drained()
    circ = chip(Variant.COMPLETE)
    creq = circ.request(0, 15)
    circ.run_until_drained()
    base_reply = reply_of(base, breq)
    circ_reply = reply_of(circ, creq)
    assert circ_reply.outcome == "on_circuit"
    # distance 6: head 2 + 6x2 + 2 = 16, tail +4 -> 20 network cycles
    assert circ_reply.network_latency == 20
    assert base_reply.network_latency > circ_reply.network_latency


def test_circuit_entries_are_freed_after_use(chip):
    c = chip(Variant.COMPLETE)
    c.request(0, 15)
    c.run_until_drained()
    assert c.net.circuit_entries() == 0


def test_reservation_walk_covers_every_router(chip):
    c = chip(Variant.COMPLETE)
    req = c.request(0, 15)
    c.run(40)  # request in flight, reply not yet sent
    reply = reply_of(chip(Variant.COMPLETE), req) if False else None
    path = path_routers(c.net.topo, 0, 0, 15)
    walk = req.walk
    assert walk is not None
    assert [hop.node for hop in walk.hops] == path
    assert walk.fully_reserved


def test_conflicting_circuits_fail_and_undo(chip):
    """Two circuits needing different inputs into the same output conflict."""
    c = chip(Variant.COMPLETE, turnaround=400)  # keep circuits held long
    # Circuit A: 0 -> 15 (reply YX 15->0). Circuit B: 12 -> 3: its reply
    # (3 -> 12, YX) shares router output ports with A's reply path.
    a = c.request(0, 15, addr=0x100)
    c.run(90)
    b = c.request(12, 3, addr=0x200)
    c.run(90)
    assert a.walk.fully_reserved
    assert b.walk is not None
    assert b.walk.failed or b.walk.fully_reserved
    if b.walk.failed:
        # failed walk must leave no dangling entries once undo propagates
        c.run(60)
        reserved_nodes = {h.node for h in b.walk.hops if h.reserved}
        for table in c.net.policy.tables:
            assert b.circuit_key not in (table or ())
    c.run_until_drained(20000)


def test_failed_circuit_reply_goes_packet_switched(chip):
    c = chip(Variant.COMPLETE, turnaround=400)
    a = c.request(0, 12, addr=0x100)   # reply path 12->0 (column 0)
    c.run(80)
    # B's reply would need the same router outputs from a different input.
    b = c.request(1, 12, addr=0x200)
    c.run_until_drained(30000)
    reply_a = reply_of(c, a)
    reply_b = reply_of(c, b)
    assert reply_a.outcome == "on_circuit"
    assert reply_b.outcome in ("failed", "on_circuit")
    if reply_b.outcome == "failed":
        assert reply_b.network_latency > reply_a.network_latency


def test_same_input_port_allows_multiple_circuits(chip):
    """Circuits sharing the input port may share outputs (section 4.2)."""
    c = chip(Variant.COMPLETE, turnaround=400)
    # Both requests from node 0 to node 15: identical paths, same inputs.
    a = c.request(0, 15, addr=0x100)
    b = c.request(0, 15, addr=0x200)
    c.run(120)
    assert a.walk.fully_reserved
    assert b.walk.fully_reserved
    c.run_until_drained(20000)
    assert reply_of(c, a).outcome == "on_circuit"
    assert reply_of(c, b).outcome == "on_circuit"


def test_capacity_limit_five_per_input(chip):
    c = chip(Variant.COMPLETE, turnaround=2000)
    reqs = [c.request(0, 15, addr=0x100 * (i + 1)) for i in range(7)]
    c.run(300)
    reserved = [r for r in reqs if r.walk and r.walk.fully_reserved]
    failed = [r for r in reqs if r.walk and r.walk.failed]
    assert len(reserved) == 5  # paper: five simultaneous circuits per input
    assert len(failed) == 2
    c.run_until_drained(40000)


def test_reservation_ordinal_stats(chip):
    c = chip(Variant.COMPLETE, turnaround=2000)
    for i in range(3):
        c.request(0, 15, addr=0x100 * (i + 1))
    c.run(300)
    s = c.stats
    assert s.counter("circuit.reservation_ordinal.1") > 0
    assert s.counter("circuit.reservation_ordinal.2") > 0
    assert s.counter("circuit.reservation_ordinal.3") > 0
    c.run_until_drained(40000)


def test_non_eligible_replies_do_not_use_circuits(chip):
    c = chip(Variant.COMPLETE)
    c.send_reply(3, 9, kind="L1_DATA_ACK")
    c.run_until_drained()
    acks = [m for _, m in c.deliveries if m.kind == "L1_DATA_ACK"]
    assert acks[0].outcome == "not_eligible"
    assert not acks[0].uses_circuit


def test_packet_replies_restricted_to_non_circuit_vc(chip):
    c = chip(Variant.COMPLETE)
    assert c.net.policy.allocatable_vcs(1) == (0,)
    assert c.net.policy.allocatable_vcs(0) == (0, 1)


def test_circuit_vc_is_bufferless(chip):
    c = chip(Variant.COMPLETE)
    router = c.net.routers[5]
    for _port, unit in router._input_units:
        assert unit.vcs[1][1].depth == 0  # circuit VC has no buffer
        assert unit.vcs[1][0].depth == 5
        assert unit.vcs[0][0].depth == 5


def test_built_circuit_does_not_block_packet_traffic(chip):
    """Section 4.3: ports and links of a reserved-but-idle circuit stay
    usable by packet-switched messages."""
    c = chip(Variant.COMPLETE, turnaround=3000)
    c.request(0, 15, addr=0x100)  # circuit held along the 0<->15 path
    c.run(120)
    assert c.net.circuit_entries() > 0
    # a packet request crossing the same routers while the circuit idles
    probe = c.request(12, 3, addr=0x200, builds_circuit=False)
    c.run(80)
    assert probe.uid in c.delivered
    # and its latency matches an uncontended packet (no circuit blocking)
    fresh = chip(Variant.COMPLETE)
    ref = fresh.request(12, 3, addr=0x200, builds_circuit=False)
    fresh.run_until_drained()
    assert (c.delivered[probe.uid].network_latency
            == fresh.delivered[ref.uid].network_latency)
    c.run_until_drained(30000)


def test_circuit_flits_have_crossbar_priority(chip):
    """When a circuit reply and packet flits want the same output in the
    same cycle, the circuit flit goes first (the packet retries)."""
    c = chip(Variant.COMPLETE, turnaround=60)
    circ_req = c.request(0, 3, addr=0x100)  # circuit on row 0
    # packet traffic crossing the same row outputs
    for i in range(4):
        c.send_reply(3, 0, kind="L1_DATA_ACK")
    c.run_until_drained(30000)
    reply = [m for _, m in c.deliveries
             if m.circuit_key == circ_req.circuit_key and m.vn == 1]
    assert reply[0].outcome == "on_circuit"
    # full circuit speed despite the competing packets: 3 hops
    assert reply[0].network_latency == 2 + 3 * 2 + 2 + 4
