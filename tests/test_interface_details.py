"""Network interface details: injection arbitration, credits, reassembly."""

from repro.noc.flit import Message
from repro.noc.network import Network
from repro.sim.config import SystemConfig, Variant


def make_net(variant=Variant.BASELINE):
    net = Network(SystemConfig(n_cores=16).with_variant(variant))
    delivered = []
    for node in range(16):
        net.set_deliver(node, lambda m, c, d=delivered: d.append((c, m)))
    return net, delivered


def run(net, cycles, start=1):
    for cycle in range(start, start + cycles):
        net.core.tick(cycle)
    return start + cycles


def test_one_flit_per_cycle_injection():
    net, _ = make_net()
    ni = net.interfaces[0]
    big = Message(0, 3, 0, 5, "REQ")
    ni.enqueue(big, 0)
    seen = []
    for cycle in range(1, 5):
        net.core.tick(cycle)
        seen.append(net.stats.counter("noc.flits_injected"))
    # exactly one flit leaves the NI per cycle
    assert seen == [1, 2, 3, 4]


def test_interleaves_vns_fairly():
    net, delivered = make_net()
    ni = net.interfaces[0]
    ni.enqueue(Message(0, 3, 0, 5, "REQ"), 0)
    reply = Message(0, 3, 1, 5, "REP")
    ni.enqueue(reply, 0)
    run(net, 100)
    kinds = {m.kind for _c, m in delivered}
    assert kinds == {"REQ", "REP"}
    # both finished around the same time: neither starved
    times = {m.kind: c for c, m in delivered}
    assert abs(times["REQ"] - times["REP"]) <= 6


def test_injection_respects_credits():
    """With the router's input buffer full, the NI must stall."""
    net, _ = make_net()
    ni = net.interfaces[0]
    # fill with a message that cannot drain quickly (12 flits > 5-deep
    # buffer) plus another behind it
    ni.enqueue(Message(0, 3, 0, 12, "BULK1"), 0)
    run(net, 4)
    # at most depth + in-flight flits may have left the NI
    assert net.stats.counter("noc.flits_injected") <= 6


def test_reassembly_handles_interleaved_messages():
    net, delivered = make_net()
    # two sources send to the same sink concurrently; flits interleave at
    # the sink's ejection link
    net.interfaces[1].enqueue(Message(1, 0, 0, 5, "A"), 0)
    net.interfaces[4].enqueue(Message(4, 0, 0, 5, "B"), 0)
    run(net, 200)
    kinds = sorted(m.kind for _c, m in delivered)
    assert kinds == ["A", "B"]
    for _c, m in delivered:
        assert m.network_latency > 0


def test_ni_credit_mirror_restored_after_traffic():
    net, _ = make_net()
    for node in range(4):
        net.interfaces[node].enqueue(Message(node, 15, 0, 5, "REQ"), 0)
    run(net, 400)
    depth = net.config.noc.buffer_depth_flits
    for ni in net.interfaces:
        for vn, row in enumerate(ni.credits):
            for credits in row:
                assert credits == depth


def test_queue_accounting_accumulates():
    net, delivered = make_net()
    ni = net.interfaces[0]
    first = Message(0, 3, 0, 5, "FIRST")
    second = Message(0, 3, 0, 1, "SECOND")
    ni.enqueue(first, 0)
    ni.enqueue(second, 0)
    run(net, 200)
    by_kind = {m.kind: m for _c, m in delivered}
    assert by_kind["SECOND"].queueing_latency >= 5  # waited for 5 flits
    assert by_kind["FIRST"].queueing_latency <= 2


def test_enqueued_message_not_injectable_same_cycle():
    net, _ = make_net()
    ni = net.interfaces[0]
    msg = Message(0, 1, 0, 1, "REQ")
    ni.enqueue(msg, 5)
    net.core.tick(5)
    assert net.stats.counter("noc.flits_injected") == 0
    net.core.tick(6)
    assert net.stats.counter("noc.flits_injected") == 1
