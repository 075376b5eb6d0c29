"""L1 / L2-directory / memory controller unit tests with a captured NI."""

import pytest

from repro.coherence.l1 import L1Controller, L1State
from repro.coherence.l2dir import L2BankController
from repro.coherence.memory import MemoryController
from repro.coherence.messages import Kind, MessageFactory
from repro.sim.config import SystemConfig, Variant
from repro.sim.stats import Stats


class FakeNi:
    """Captures outgoing messages instead of injecting them."""

    def __init__(self):
        self.sent = []
        self.cancelled = []

    def enqueue(self, msg, cycle):
        self.sent.append((cycle, msg))

    def cancel_circuit(self, key, cycle):
        self.cancelled.append(key)
        return True

    def kinds(self):
        return [m.kind for _, m in self.sent]

    def last(self):
        return self.sent[-1][1]

    def clear(self):
        self.sent.clear()


@pytest.fixture
def setup():
    config = SystemConfig(n_cores=16).with_variant(Variant.BASELINE)
    factory = MessageFactory(config)
    stats = Stats()
    return config, factory, stats


def make_l1(setup, node=0):
    config, factory, stats = setup
    ni = FakeNi()
    l1 = L1Controller(node, config, factory, ni, home_of=lambda a: 3,
                      stats=stats)
    return l1, ni


def make_l2(setup, node=3):
    config, factory, stats = setup
    ni = FakeNi()
    l2 = L2BankController(node, config, factory, ni, mc_of=lambda a: 12,
                          stats=stats)
    return l2, ni


def drive(ctrl, cycles=40, start=0):
    for cycle in range(start, start + cycles):
        ctrl.tick(cycle)


# ---------------------------------------------------------------------------
# L1 controller.
# ---------------------------------------------------------------------------

def test_l1_load_miss_sends_gets(setup):
    l1, ni = make_l1(setup)
    assert l1.access(0x1000, False, 0) is False
    assert ni.kinds() == [Kind.GETS]
    assert ni.last().dest == 3
    assert ni.last().builds_circuit


def test_l1_store_miss_sends_getx(setup):
    l1, ni = make_l1(setup)
    l1.access(0x1000, True, 0)
    assert ni.kinds() == [Kind.GETX]


def test_l1_hits_dont_send(setup):
    l1, ni = make_l1(setup)
    l1.prewarm_line(0x1000, L1State.EXCLUSIVE)
    assert l1.access(0x1000, False, 0) is True
    assert l1.access(0x1000, True, 1) is True  # silent E->M upgrade
    assert ni.sent == []
    assert l1.array.peek(0x1000).state is L1State.MODIFIED


def test_l1_store_to_shared_is_upgrade_miss(setup):
    l1, ni = make_l1(setup)
    l1.prewarm_line(0x1000, L1State.SHARED)
    assert l1.access(0x1000, True, 0) is False
    assert ni.kinds() == [Kind.GETX]


def test_l1_data_reply_installs_resumes_and_acks(setup):
    config, factory, _ = setup
    l1, ni = make_l1(setup)
    resumed = []
    l1.resume_core = resumed.append
    l1.access(0x1000, False, 0)
    ni.clear()
    reply = factory.l2_reply(3, 0, 0x1000, ni_request(factory), exclusive=True)
    l1.receive(reply, 5)
    drive(l1, 10, start=5)
    assert l1.array.peek(0x1000).state is L1State.EXCLUSIVE
    assert resumed
    assert ni.kinds() == [Kind.L1_DATA_ACK]


def ni_request(factory):
    return factory.gets(0, 3, 0x1000)


def test_l1_suppressed_ack_is_counted_eliminated(setup):
    config, factory, stats = setup
    l1, ni = make_l1(setup)
    l1.resume_core = lambda c: None
    l1.access(0x1000, False, 0)
    ni.clear()
    reply = factory.l2_reply(3, 0, 0x1000, ni_request(factory), exclusive=True)
    reply.payload.ack_suppressed = True
    l1.receive(reply, 5)
    drive(l1, 10, start=5)
    assert ni.sent == []  # no ACK on the wire
    assert stats.counter("circuit.outcome.eliminated") == 1


def test_l1_modified_eviction_writes_back(setup):
    config, factory, _ = setup
    l1, ni = make_l1(setup)
    l1.resume_core = lambda c: None
    # fill one set (4 ways) with MODIFIED lines: set stride = sets*64
    stride = config.cache.l1_sets * 64
    for i in range(4):
        l1.prewarm_line(0x10000 + i * stride, L1State.MODIFIED)
    l1.access(0x10000 + 4 * stride, False, 0)
    ni.clear()
    reply = factory.l2_reply(3, 0, 0x10000 + 4 * stride,
                             ni_request(factory), exclusive=True)
    l1.receive(reply, 5)
    drive(l1, 10, start=5)
    kinds = ni.kinds()
    assert Kind.WB_L1 in kinds
    wb = next(m for _, m in ni.sent if m.kind == Kind.WB_L1)
    assert wb.n_flits == 5  # replacement data carries the line
    assert wb.payload.exclusive  # dirty
    assert len(l1.wb_buffer) == 1


def test_l1_clean_eviction_is_silent(setup):
    config, factory, _ = setup
    l1, ni = make_l1(setup)
    l1.resume_core = lambda c: None
    stride = config.cache.l1_sets * 64
    for i in range(4):
        l1.prewarm_line(0x10000 + i * stride, L1State.EXCLUSIVE)
    l1.access(0x10000 + 4 * stride, False, 0)
    ni.clear()
    reply = factory.l2_reply(3, 0, 0x10000 + 4 * stride,
                             ni_request(factory), exclusive=True)
    l1.receive(reply, 5)
    drive(l1, 10, start=5)
    assert Kind.WB_L1 not in ni.kinds()


def test_l1_inv_acks_even_when_line_absent(setup):
    config, factory, _ = setup
    l1, ni = make_l1(setup)
    inv = factory.inv(3, 0, 0x2000)
    l1.receive(inv, 2)
    drive(l1, 10, start=2)
    assert ni.kinds() == [Kind.L1_INV_ACK]


def test_l1_forward_gets_downgrades_and_serves(setup):
    config, factory, _ = setup
    l1, ni = make_l1(setup)
    l1.prewarm_line(0x3000, L1State.MODIFIED)
    fwd = factory.forward(Kind.FWD_GETS, 3, 0, 0x3000, requestor=9,
                          undone_circuit=True)
    l1.receive(fwd, 2)
    drive(l1, 10, start=2)
    assert l1.array.peek(0x3000).state is L1State.SHARED
    reply = ni.last()
    assert reply.kind == Kind.L1_TO_L1
    assert reply.dest == 9
    assert reply.outcome_hint == "undone"
    assert not reply.payload.exclusive


def test_l1_forward_getx_invalidates(setup):
    config, factory, _ = setup
    l1, ni = make_l1(setup)
    l1.prewarm_line(0x3000, L1State.EXCLUSIVE)
    fwd = factory.forward(Kind.FWD_GETX, 3, 0, 0x3000, requestor=9,
                          undone_circuit=False)
    l1.receive(fwd, 2)
    drive(l1, 10, start=2)
    assert l1.array.peek(0x3000) is None
    assert ni.last().payload.exclusive


def test_l1_defers_rerequest_during_own_writeback(setup):
    config, factory, _ = setup
    l1, ni = make_l1(setup)
    l1.resume_core = lambda c: None
    l1.wb_buffer[0x4000] = True  # writeback in flight
    assert l1.access(0x4000, False, 0) is False
    assert ni.sent == []  # deferred
    ack = factory.l2_wb_ack(3, 0, 0x4000, factory.wb_l1(0, 3, 0x4000))
    l1.receive(ack, 2)
    drive(l1, 10, start=2)
    assert ni.kinds() == [Kind.GETS]


# ---------------------------------------------------------------------------
# L2 bank / directory.
# ---------------------------------------------------------------------------

def run_l2(l2, until=400):
    drive(l2, until)


def test_l2_miss_fetches_from_memory_then_grants(setup):
    config, factory, _ = setup
    l2, ni = make_l2(setup)
    gets = factory.gets(0, 3, 0x5000)
    l2.receive(gets, 0)
    drive(l2, 20)
    assert ni.kinds() == [Kind.MEM_READ]
    assert ni.last().dest == 12
    mem = factory.memory_data(12, 3, 0x5000, ni.last())
    ni.clear()
    l2.receive(mem, 30)
    drive(l2, 20, start=30)
    assert ni.kinds() == [Kind.L2_REPLY]
    assert ni.last().payload.exclusive  # sole sharer gets E
    assert ni.last().dest == 0


def test_l2_hit_grants_shared_when_other_sharers(setup):
    config, factory, _ = setup
    l2, ni = make_l2(setup)
    l2.prewarm_line(0x5000, sharers={7})
    gets = factory.gets(0, 3, 0x5000)
    l2.receive(gets, 0)
    drive(l2, 20)
    assert ni.kinds() == [Kind.L2_REPLY]
    assert not ni.last().payload.exclusive


def test_l2_blocks_line_until_data_ack(setup):
    config, factory, _ = setup
    l2, ni = make_l2(setup)
    l2.prewarm_line(0x5000, sharers={7})
    l2.receive(factory.gets(0, 3, 0x5000), 0)
    drive(l2, 20)
    ni.clear()
    # second request while blocked: queued, no reply yet
    l2.receive(factory.gets(1, 3, 0x5000), 21)
    drive(l2, 20, start=21)
    assert ni.sent == []
    # ack unblocks and the queued request is served
    l2.receive(factory.l1_data_ack(0, 3, 0x5000), 60)
    drive(l2, 20, start=60)
    assert ni.kinds() == [Kind.L2_REPLY]
    assert ni.last().dest == 1


def test_l2_forwards_to_exclusive_owner_and_cancels_circuit(setup):
    config, factory, _ = setup
    l2, ni = make_l2(setup)
    l2.prewarm_line(0x5000, owner=7)
    gets = factory.gets(0, 3, 0x5000)
    l2.receive(gets, 0)
    drive(l2, 20)
    assert ni.kinds() == [Kind.FWD_GETS]
    fwd = ni.last()
    assert fwd.dest == 7 and fwd.payload.requestor == 0
    assert fwd.payload.undone_circuit  # FakeNi confirms cancellation
    assert ni.cancelled == [gets.circuit_key]
    # data ack from requestor completes: both become sharers
    l2.receive(factory.l1_data_ack(0, 3, 0x5000), 40)
    drive(l2, 20, start=40)
    line = l2.array.peek(0x5000)
    assert line.owner is None
    assert line.sharers == {0, 7}
    assert line.dirty


def test_l2_getx_invalidates_sharers_before_grant(setup):
    config, factory, _ = setup
    l2, ni = make_l2(setup)
    l2.prewarm_line(0x5000, sharers={5, 9})
    l2.receive(factory.getx(0, 3, 0x5000), 0)
    drive(l2, 20)
    kinds = ni.kinds()
    assert kinds.count(Kind.INV) == 2
    assert Kind.L2_REPLY not in kinds
    ni.clear()
    l2.receive(factory.l1_inv_ack(5, 3, 0x5000), 30)
    l2.receive(factory.l1_inv_ack(9, 3, 0x5000), 31)
    drive(l2, 20, start=31)
    assert ni.kinds() == [Kind.L2_REPLY]
    assert ni.last().payload.exclusive
    l2.receive(factory.l1_data_ack(0, 3, 0x5000), 60)
    drive(l2, 10, start=60)
    assert l2.array.peek(0x5000).owner == 0


def test_l2_writeback_from_owner(setup):
    config, factory, _ = setup
    l2, ni = make_l2(setup)
    l2.prewarm_line(0x5000, owner=0)
    wb = factory.wb_l1(0, 3, 0x5000)
    wb.payload.exclusive = True
    l2.receive(wb, 0)
    drive(l2, 20)
    assert ni.kinds() == [Kind.L2_WB_ACK]
    line = l2.array.peek(0x5000)
    assert line.owner is None and line.dirty


def test_l2_stale_writeback_still_acked(setup):
    config, factory, _ = setup
    l2, ni = make_l2(setup)
    l2.prewarm_line(0x5000, owner=9)  # ownership moved on
    wb = factory.wb_l1(0, 3, 0x5000)
    l2.receive(wb, 0)
    drive(l2, 20)
    assert ni.kinds() == [Kind.L2_WB_ACK]
    assert l2.array.peek(0x5000).owner == 9  # untouched


def test_l2_eviction_invalidates_and_writes_back(setup):
    config, factory, _ = setup
    l2, ni = make_l2(setup)
    # fill one set (16 ways): bank 3 owns blocks where block % 16 == 3
    sets = config.cache.l2_bank_sets
    base_block = 3
    addrs = [(base_block + 16 * sets * i) * 64 for i in range(16)]
    for addr in addrs:
        assert l2.prewarm_line(addr, owner=5)
    new_addr = (base_block + 16 * sets * 16) * 64
    l2.receive(factory.gets(0, 3, new_addr), 0)
    drive(l2, 20)
    kinds = ni.kinds()
    assert Kind.INV in kinds  # victim owner invalidated
    assert Kind.MEM_READ in kinds  # fetch proceeds in parallel
    inv = next(m for _, m in ni.sent if m.kind == Kind.INV)
    ni.clear()
    l2.receive(factory.l1_inv_ack(5, 3, inv.payload.addr), 30)
    drive(l2, 20, start=30)
    # owner invalidation implies dirty data: written back to memory
    assert ni.kinds() == [Kind.WB_L2]


def _one_set(config, ways=16, base_block=3):
    """Addresses of bank 3 that all map to one of its sets."""
    sets = config.cache.l2_bank_sets
    return [(base_block + 16 * sets * i) * 64 for i in range(ways + 1)]


def _built(l2):
    return [addr for addr, _ in l2.array.items(defaults=False)]


def test_l2_prewarm_fill_builds_nothing_until_a_line_is_owned(setup):
    config, factory, _ = setup
    l2, ni = make_l2(setup)
    *addrs, overflow = _one_set(config)
    l2.prewarm_fill(addrs + [overflow])
    assert l2.array.occupancy() == 16 and overflow not in l2.array
    assert _built(l2) == []
    # prewarm-then-own: ownership lands on a line the fill left unbuilt
    assert l2.prewarm_line(addrs[5], owner=9)
    assert _built(l2) == [addrs[5]]
    assert l2.array.peek(addrs[5]).owner == 9
    line = l2.array.peek(addrs[6])  # first read builds the default line
    assert (line.owner, line.sharers, line.dirty, line.busy) == (
        None, None, False, False)
    assert l2.array.peek(addrs[6]) is line


def test_l2_evicting_a_default_line_is_silent(setup):
    """A never-read victim is clean, unowned and unshared: it leaves
    without an invalidation or a writeback."""
    config, factory, _ = setup
    l2, ni = make_l2(setup)
    *addrs, new_addr = _one_set(config)
    l2.prewarm_fill(addrs)
    l2.receive(factory.gets(0, 3, new_addr), 0)
    drive(l2, 20)
    assert ni.kinds() == [Kind.MEM_READ]
    assert l2.stats.counter("l2.evictions") == 1
    assert l2.array.occupancy() == 16 and _built(l2) == [new_addr]
    assert not l2.txns.keys() - {new_addr}  # the eviction already closed


# ---------------------------------------------------------------------------
# Memory controller.
# ---------------------------------------------------------------------------

def test_memory_read_latency_and_reply(setup):
    config, factory, stats = setup
    ni = FakeNi()
    mc = MemoryController(12, config, factory, ni, stats)
    req = factory.mem_read(3, 12, 0x5000)
    mc.receive(req, 10)
    drive(mc, 159, start=10)  # cycles 10..168: before the 160-cycle latency
    assert ni.sent == []
    drive(mc, 3, start=169)  # fires at 170 = 10 + 160
    assert ni.kinds() == [Kind.MEMORY_DATA]
    assert ni.sent[0][0] == 170
    assert ni.last().n_flits == 5


def test_memory_write_ack(setup):
    config, factory, stats = setup
    ni = FakeNi()
    mc = MemoryController(12, config, factory, ni, stats)
    wb = factory.wb_l2(3, 12, 0x5000)
    mc.receive(wb, 0)
    drive(mc, 170)
    assert ni.kinds() == [Kind.MEMORY_ACK]
    assert ni.last().n_flits == 1


def test_memory_rejects_unknown_kind(setup):
    config, factory, stats = setup
    ni = FakeNi()
    mc = MemoryController(12, config, factory, ni, stats)
    with pytest.raises(ValueError):
        mc.receive(factory.gets(0, 12, 0x40), 0)
