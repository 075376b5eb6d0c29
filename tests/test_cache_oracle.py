"""``CacheArray`` against the dict-backed array it replaced.

``DictBackedOracle`` is the previous implementation, kept here as the
reference (the ``TreeWalkOracle`` idiom of ``test_cache_array``): every
resident way holds a line object from the moment it is placed, and an
``addr -> way`` dict answers residency.  The production array keeps the
addresses only and builds a default line when a controller first reads
it; nothing a controller can observe - return values, way placement,
PLRU bits, iteration order - may differ, after any step of any sequence.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.cache import CacheArray, plru_masks, plru_victim

DEFAULT = -1


class Line:
    def __init__(self, tag=DEFAULT):
        self.tag = tag


class DictBackedOracle:
    def __init__(self, sets, ways, line_bytes, block_stride=1):
        self.sets = sets
        self.ways = ways
        self._set_bytes = line_bytes * block_stride
        self._touch = plru_masks(ways)
        self._lines = [[None] * ways for _ in range(sets)]
        self._addrs = [[None] * ways for _ in range(sets)]
        self._plru = [0] * sets
        self._where = {}

    def set_index(self, addr):
        return addr // self._set_bytes % self.sets

    def _touched(self, index, way):
        keep, point = self._touch[way]
        self._plru[index] = self._plru[index] & keep | point

    def lookup(self, addr):
        way = self._where.get(addr)
        if way is None:
            return None
        index = self.set_index(addr)
        self._touched(index, way)
        return self._lines[index][way]

    def peek(self, addr):
        way = self._where.get(addr)
        if way is None:
            return None
        return self._lines[self.set_index(addr)][way]

    def install_if_free(self, addr, line):
        index = self.set_index(addr)
        lines = self._lines[index]
        if None not in lines:
            return False
        way = lines.index(None)
        lines[way] = line
        self._addrs[index][way] = addr
        self._where[addr] = way
        self._touched(index, way)
        return True

    def install(self, addr, line):
        if not self.install_if_free(addr, line):
            raise ValueError(f"no free way in set {self.set_index(addr)}")

    def fill_absent(self, addrs, make_line):
        for addr in addrs:
            if addr not in self._where:
                self.install_if_free(addr, make_line())

    def choose_victim(self, addr, evictable):
        index = self.set_index(addr)
        lines = self._lines[index]
        start = plru_victim(self._plru[index], self.ways)
        for offset in range(self.ways):
            way = (start + offset) % self.ways
            line = lines[way]
            if line is not None and evictable(line):
                return self._addrs[index][way]
        return None

    def remove(self, addr):
        way = self._where.pop(addr, None)
        if way is None:
            return None
        index = self.set_index(addr)
        line = self._lines[index][way]
        self._lines[index][way] = None
        self._addrs[index][way] = None
        return line

    def occupancy(self):
        return len(self._where)

    def items(self):
        for addrs, lines in zip(self._addrs, self._lines):
            for addr, line in zip(addrs, lines):
                if addr is not None:
                    yield addr, line

    def __contains__(self, addr):
        return addr in self._where


def _tag(line):
    return None if line is None else line.tag


def _evictable(line):
    """Rejects some given lines and every owned one; default lines pass."""
    return line.tag % 3 != 0


OPS = ("install_if_free", "install", "fill_absent", "lookup", "peek",
       "remove", "choose_victim", "replace", "own", "contains")


class Pair:
    """The array under test and the oracle, stepped together."""

    def __init__(self, sets, ways, block_stride=1):
        self.array = CacheArray(sets, ways, 64, block_stride, make_line=Line)
        self.oracle = DictBackedOracle(sets, ways, 64, block_stride)
        self.span = 3 * sets * ways * block_stride  # blocks: 3x capacity

    def both(self, call):
        results = []
        for side in (self.array, self.oracle):
            try:
                results.append(("ok", call(side)))
            except ValueError as exc:
                results.append(("raised", str(exc)))
        assert results[0] == results[1]
        return results[0][1]

    def fill(self, addrs):
        addrs = list(addrs)
        self.array.fill_absent(addrs)
        self.oracle.fill_absent(addrs, Line)

    def step(self, op, block, more):
        addr = block % self.span * 64
        if op in ("install_if_free", "install"):
            self.both(lambda side: getattr(side, op)(addr, Line(block))
                      if addr not in side else None)
        elif op == "fill_absent":
            self.fill((block + 7 * i) % self.span * 64 for i in range(more))
        elif op in ("lookup", "peek", "remove"):
            self.both(lambda side: _tag(getattr(side, op)(addr)))
        elif op == "choose_victim":
            self.both(lambda side: side.choose_victim(addr, _evictable))
        elif op == "replace":  # a miss: evict the victim, install
            def replace(side):
                if addr in side or side.install_if_free(addr, Line(block)):
                    return None
                victim = side.choose_victim(addr, _evictable)
                if victim is not None:
                    gone = _tag(side.remove(victim))
                    side.install(addr, Line(block))
                    return victim, gone
            self.both(replace)
        elif op == "own":  # prewarm_line(addr, owner) on a resident line
            def own(side):
                line = side.peek(addr)
                if line is not None and line.tag == DEFAULT:
                    line.tag = 3 * more  # owned: no longer evictable
                return _tag(line)
            self.both(own)
        else:
            self.both(lambda side: addr in side)
        self.check()

    def check(self):
        array, oracle = self.array, self.oracle
        assert array._plru.tolist() == oracle._plru
        assert array.occupancy() == oracle.occupancy()
        seen = [(addr, line.tag) for addr, line in array.items()]
        assert seen == [(addr, line.tag) for addr, line in oracle.items()]
        assert {addr: array.way_of(addr) for addr, _ in seen} == oracle._where


GEOMETRIES = [(sets, ways) for sets in (1, 8) for ways in (1, 2, 4, 16)]


@pytest.mark.parametrize("sets,ways", GEOMETRIES)
@pytest.mark.parametrize("block_stride", [1, 4])
def test_seeded_sequences_agree_with_the_dict_backed_array(sets, ways,
                                                           block_stride):
    rng = random.Random(f"oracle/{sets}/{ways}/{block_stride}")
    for _ in range(10):
        pair = Pair(sets, ways, block_stride)
        for _ in range(250):
            pair.step(rng.choice(OPS), rng.randrange(10_000),
                      rng.randrange(1, 2 * ways + 2))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GEOMETRIES),
       st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 10_000),
                          st.integers(1, 33)), max_size=80))
def test_any_sequence_agrees_with_the_dict_backed_array(geometry, steps):
    pair = Pair(*geometry)
    for step in steps:
        pair.step(*step)


@pytest.mark.parametrize("sets,ways", GEOMETRIES)
def test_prewarm_then_own_then_evict_default_victims(sets, ways):
    """The prewarm's shape: a bulk fill to capacity and beyond, then
    ownership landing on lines the fill left unbuilt, then misses whose
    victims are mostly still default lines."""
    pair = Pair(sets, ways)
    capacity = sets * ways
    pair.fill(block * 64 for block in range(capacity + 3))
    pair.check()
    assert pair.array.occupancy() == capacity
    assert not list(pair.array.items(defaults=False))
    for block in range(0, capacity, 3):
        pair.step("own", block, 1 + block)
    owned = sum(1 for _ in pair.array.items(defaults=False))
    assert owned == len(range(0, capacity, 3))
    for block in range(capacity, 3 * capacity):
        pair.step("replace", block, 1)
    assert pair.array.occupancy() == capacity
