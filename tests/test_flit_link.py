"""Message segmentation, and link timing on the arrival calendar."""

import pytest

from repro.noc.flit import Credit, Message, control_message, data_message
from repro.noc.network import Network
from repro.noc.topology import Port
from repro.sim.config import SystemConfig


def test_data_message_is_five_flits():
    """64B line + header at 16B flits = 5 flits (paper Table 4)."""
    msg = data_message(0, 1, 1, "L2_REPLY", flit_bytes=16, line_bytes=64)
    assert msg.n_flits == 5


def test_control_message_is_single_flit():
    msg = control_message(0, 1, 0, "GETS")
    assert msg.n_flits == 1
    flits = msg.flits()
    assert flits[0].is_head and flits[0].is_tail


def test_flit_segmentation_roles():
    msg = Message(0, 1, 1, 5, "X")
    flits = msg.flits()
    assert [f.is_head for f in flits] == [True, False, False, False, False]
    assert [f.is_tail for f in flits] == [False, False, False, False, True]
    assert [f.index for f in flits] == list(range(5))


def test_message_validation():
    with pytest.raises(ValueError):
        Message(0, 1, 2, 1, "bad-vn")
    with pytest.raises(ValueError):
        Message(0, 1, 0, 0, "no-flits")


def _ni_spy(node=5):
    """A 4x4 network and a log of ``(cycle, flits)`` for every body of
    NI ``node`` the router core runs."""
    net = Network(SystemConfig(n_cores=16))
    ni = net.interfaces[node]
    real = ni.tick
    runs = []

    def tick(cycle, flits=()):
        runs.append((cycle, list(flits)))
        return real(cycle, flits)

    ni.tick = tick
    return net, ni, runs


def test_flit_link_timing():
    """ST at cycle c -> available at c + 1 + latency (5 cyc/hop total):
    a router -> NI entry sent in c is handed to the NI in c + 2."""
    net, ni, runs = _ni_spy()
    router = net.routers[5]
    flit = Message(0, 5, 0, 1, "X").flits()[0]
    router.forward_flit(Port.LOCAL, flit, 10)
    assert net.core.flits == {12: [(net.core.ni_base + 5, flit)]}
    for cycle in range(10, 14):
        net.core.tick(cycle)
    assert runs == [(12, [flit])]


def test_flit_link_preserves_order():
    """Entries for one NI stay first in first out, after every
    router-bound entry of the same due cycle."""
    net, ni, runs = _ni_spy()
    router = net.routers[5]
    msg = Message(0, 5, 1, 3, "X")
    flits = msg.flits()
    for i, flit in enumerate(flits):
        router.forward_flit(Port.LOCAL, flit, 10 + i)
    other = Message(4, 6, 0, 1, "Y").flits()[0]
    router.forward_flit(Port.EAST, other, 12)
    router.forward_flit(Port.LOCAL, Message(1, 5, 0, 1, "Z").flits()[0], 12)
    for cycle in range(10, 16):
        net.core.tick(cycle)
    got = [flit for _cycle, batch in runs for flit in batch]
    assert got[:3] == flits and got[3].msg.kind == "Z"
    assert [cycle for cycle, _batch in runs] == [12, 13, 14]


def test_link_watcher_counts():
    """An NI with only future calendar entries is not run before they
    are due, and then runs once with all of them."""
    net, ni, runs = _ni_spy()
    router = net.routers[5]
    flits = Message(0, 5, 0, 2, "X").flits()
    for flit in flits:
        router.forward_flit(Port.LOCAL, flit, 5)
    net.core.tick(5)
    net.core.tick(6)
    assert runs == []
    net.core.tick(7)
    assert runs == [(7, flits)] and not net.core.flits


def test_credit_link_and_undo():
    """A buffer credit and an undo notice due together both arrive: the
    credit refills the NI's injection credits, the undo ends there."""
    net, ni, _runs = _ni_spy()
    key = net.core.ni_base + 5
    before = ni.credits[1][0]
    net.core.send_credit(key, Credit(1, 0), 4)
    net.core.send_credit(key, Credit(undo_key=(3, 0x40, 9)), 4)
    credits = [credit for _key, credit in net.core.credits[6]]
    assert len(credits) == 2
    assert credits[0].is_buffer_credit and credits[0].vn == 1
    assert not credits[1].is_buffer_credit
    assert credits[1].undo_key == (3, 0x40, 9)
    net.core.tick(6)
    assert ni.credits[1][0] == before + 1
    assert not net.core.credits


def test_message_latency_accumulators():
    msg = Message(0, 1, 1, 1, "X")
    msg.enqueued_cycle = 10
    msg.injected_cycle = 13
    msg.queue_acc += 3
    msg.net_acc += 20
    assert msg.queueing_latency == 3
    assert msg.network_latency == 20
