"""Circuit table entries, the policy's circuit store and reservation
walks."""

from hypothesis import given, strategies as st

from repro.circuits.policy import make_policy
from repro.circuits.table import (
    CircuitEntry,
    CircuitWalk,
    HopRecord,
    circuit_key,
    purge_expired,
)
from repro.coherence.messages import MessageFactory
from repro.noc.flit import Message
from repro.noc.topology import Port, build_topology
from repro.sim.config import SystemConfig, Variant
from repro.sim.stats import Stats


def entry(key=(0, 0x40, 1), start=None, end=None):
    return CircuitEntry(key, Port.EAST, Port.WEST, built_cycle=0,
                        window_start=start, window_end=end)


def store(variant=Variant.COMPLETE):
    """The circuit policy of a 4x4 chip: it owns the circuit store."""
    config = SystemConfig(n_cores=16).with_variant(variant)
    return make_policy(config, build_topology(config), Stats())


def test_untimed_entries_never_expire():
    e = entry()
    assert e.live(0) and e.live(10**9)
    assert not e.timed


def test_timed_entries_expire():
    e = entry(start=100, end=120)
    assert e.timed
    assert e.live(100) and e.live(120)
    assert not e.live(121)


def test_overlap_detection():
    e = entry(start=100, end=120)
    assert e.overlaps(120, 130)
    assert e.overlaps(90, 100)
    assert e.overlaps(105, 110)
    assert not e.overlaps(121, 140)
    assert not e.overlaps(50, 99)


@given(st.integers(0, 200), st.integers(0, 200),
       st.integers(0, 200), st.integers(0, 200))
def test_overlap_is_symmetric(a0, a1, b0, b1):
    a0, a1 = sorted((a0, a1))
    b0, b1 = sorted((b0, b1))
    ea = entry(key=(0, 1, 1), start=a0, end=a1)
    eb = entry(key=(0, 2, 2), start=b0, end=b1)
    assert ea.overlaps(b0, b1) == eb.overlaps(a0, a1)


def test_table_capacity_and_purge():
    policy = store()
    assert policy.capacity == 5
    assert policy.tables[0 * policy.stride + Port.NORTH] is None  # corner
    table = policy.tables[5 * policy.stride + Port.EAST]
    for e in (entry(key=(0, 1, 1), start=10, end=20),
              entry(key=(0, 2, 2), start=10, end=50),
              entry(key=(0, 3, 3))):
        table[e.key] = e
    assert purge_expired(table, 15) == 3
    assert purge_expired(table, 30) == 2  # first expired and purged
    assert (0, 1, 1) not in table
    assert purge_expired(table, 60) == 1  # only the untimed entry is left


def test_table_remove():
    """A tail that drained through its fragmented circuit VC frees the
    entry once; a second departure finds nothing to free."""
    policy = store(Variant.FRAGMENTED)
    port_key = 5 * policy.stride + Port.EAST
    reply = Message(6, 4, 1, 5, "L2_REPLY")
    reply.circuit_key = circuit_key(4, 0x40, 1)
    e = entry(key=reply.circuit_key)
    policy.tables[port_key][e.key] = e
    tail = reply.flits()[-1]
    policy.on_tail_departure(port_key, tail)
    assert e.key not in policy.tables[port_key]
    policy.on_tail_departure(port_key, tail)
    assert policy._c_entries_used == 1


def test_walk_fully_reserved():
    walk = CircuitWalk((0, 1, 1), reply_flits=5, path_hops=2, turnaround=7)
    assert not walk.fully_reserved  # no hops yet
    walk.hops.append(HopRecord(0, Port.EAST, Port.LOCAL, True))
    assert walk.fully_reserved
    walk.hops.append(HopRecord(1, Port.LOCAL, Port.WEST, False))
    assert not walk.fully_reserved
    assert len(walk.reserved_hops) == 1


def test_walk_failed_flag_dominates():
    walk = CircuitWalk((0, 1, 1), 5, 2, 7)
    walk.hops.append(HopRecord(0, Port.EAST, Port.LOCAL, True))
    walk.failed = True
    assert not walk.fully_reserved


def test_feasible_departure_untimed_hops_pass_through():
    walk = CircuitWalk((0, 1, 1), 5, 1, 7)
    walk.hops.append(HopRecord(0, Port.EAST, Port.LOCAL, True))
    assert walk.feasible_departure(42, 2, 2) == 42


def test_circuit_key_shape():
    assert circuit_key(3, 0x1000, 7) == (3, 0x1000, 7)
    request = MessageFactory(SystemConfig(n_cores=16)).gets(3, 9, 0x1000)
    assert request.circuit_key == circuit_key(3, 0x1000, request.uid)


@given(st.integers(0, 63), st.integers(0, 1 << 32))
def test_entries_keyed_uniquely(dest, block):
    policy = store()
    table = policy.tables[5 * policy.stride + Port.EAST]
    key_a = circuit_key(dest, block, 1)
    key_b = circuit_key(dest, block, 2)
    table[key_a] = CircuitEntry(key_a, Port.EAST, Port.WEST, 0)
    table[key_b] = CircuitEntry(key_b, Port.EAST, Port.WEST, 0)
    assert len(table) == 2
