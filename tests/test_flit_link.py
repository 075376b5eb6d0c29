"""Message segmentation and link timing."""

import pytest

from repro.noc.flit import Message, control_message, data_message
from repro.noc.link import Credit, CreditLink, FlitLink


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


def test_flit_link_timing():
    """ST at cycle c -> available at c + 1 + latency (5 cyc/hop total)."""
    link = FlitLink(latency=1)
    msg = Message(0, 1, 0, 1, "X")
    flit = msg.flits()[0]
    link.send(flit, 10)
    assert list(link.arrivals(10)) == []
    assert list(link.arrivals(11)) == []
    assert list(link.arrivals(12)) == [flit]
    assert list(link.arrivals(13)) == []


def test_flit_link_preserves_order():
    link = FlitLink()
    msg = Message(0, 1, 0, 3, "X")
    flits = msg.flits()
    for i, flit in enumerate(flits):
        link.send(flit, 10 + i)
    got = []
    for cycle in range(10, 16):
        got.extend(link.arrivals(cycle))
    assert got == flits


def test_link_watcher_counts():
    class Watcher:
        # The watcher contract: NIs expose ``incoming`` plus a
        # ``kernel_wake`` slot (None until an activity kernel registers).
        incoming = 0
        kernel_wake = None

    link = FlitLink()
    link.watcher = Watcher()
    msg = Message(0, 1, 0, 2, "X")
    for flit in msg.flits():
        link.send(flit, 5)
    assert link.watcher.incoming == 2
    list(link.arrivals(7))
    assert link.watcher.incoming == 0


def test_credit_link_and_undo():
    link = CreditLink(latency=1)
    link.send(Credit(1, 0), 4)
    link.send(Credit(undo_key=(3, 0x40, 9)), 4)
    credits = list(link.arrivals(6))
    assert len(credits) == 2
    assert credits[0].is_buffer_credit and credits[0].vn == 1
    assert not credits[1].is_buffer_credit
    assert credits[1].undo_key == (3, 0x40, 9)


def test_message_latency_accumulators():
    msg = Message(0, 1, 1, 1, "X")
    msg.enqueued_cycle = 10
    msg.injected_cycle = 13
    msg.queue_acc += 3
    msg.net_acc += 20
    assert msg.queueing_latency == 3
    assert msg.network_latency == 20
