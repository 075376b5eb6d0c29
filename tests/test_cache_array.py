"""Cache arrays and tree pseudo-LRU replacement."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.coherence.cache import CacheArray, plru_masks, plru_victim


class Line:
    def __init__(self, tag):
        self.tag = tag


class PseudoLruTree:
    """The production encoding - one int per set, per-way ``(keep, set)``
    masks - behind the touch/victim shape these tests are written in."""

    def __init__(self, ways):
        self.ways = ways
        self.masks = plru_masks(ways)
        self.bits = 0

    def touch(self, way):
        keep, point = self.masks[way]
        self.bits = self.bits & keep | point

    def victim(self):
        return plru_victim(self.bits, self.ways)


class TreeWalkOracle:
    """The bool-list tree walk the int encoding replaced, kept as the
    reference: one flag per internal node in heap order, True = the
    victim walk goes right."""

    def __init__(self, ways):
        self.ways = ways
        self.flags = [False] * max(1, ways - 1)

    def touch(self, way):
        node, span, base = 0, self.ways, 0
        while span > 1:
            half = span // 2
            go_right = way >= base + half
            self.flags[node] = not go_right  # point away from the used half
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                base += half
            span = half

    def victim(self):
        node, span, base = 0, self.ways, 0
        while span > 1:
            half = span // 2
            go_right = self.flags[node]
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                base += half
            span = half
        return base

    @property
    def bits(self):
        return sum(flag << node for node, flag in enumerate(self.flags))


@pytest.mark.parametrize("ways", [1, 2, 4, 8, 16])
def test_plru_int_masks_agree_with_tree_walk(ways):
    """Random touch/victim sequences: same victim and the same bits, step
    for step, as the tree walk (victim-then-touch is a replacement, a
    bare touch is a hit)."""
    rng = random.Random(f"plru/{ways}")
    for _ in range(50):
        plru, oracle = PseudoLruTree(ways), TreeWalkOracle(ways)
        for _ in range(200):
            if rng.random() < 0.3:
                way = plru.victim()
                assert way == oracle.victim()
            else:
                way = rng.randrange(ways)
            plru.touch(way)
            oracle.touch(way)
            assert plru.bits == oracle.bits
            assert plru.victim() == oracle.victim()


def test_plru_requires_power_of_two():
    with pytest.raises(ValueError):
        PseudoLruTree(3)
    PseudoLruTree(1)
    PseudoLruTree(16)


def test_plru_victim_is_not_most_recent():
    plru = PseudoLruTree(4)
    for way in range(4):
        plru.touch(way)
    assert plru.victim() != 3  # way 3 was touched last


def test_plru_cycles_through_all_ways():
    plru = PseudoLruTree(4)
    seen = set()
    for _ in range(8):
        victim = plru.victim()
        seen.add(victim)
        plru.touch(victim)
    assert seen == {0, 1, 2, 3}


@given(st.integers(0, 3), st.integers(1, 4))
def test_plru_victim_never_equals_just_touched(way, _n):
    plru = PseudoLruTree(4)
    plru.touch(way)
    assert plru.victim() != way


@given(st.lists(st.integers(0, 15), min_size=1, max_size=64))
def test_plru_16way_victim_valid(touches):
    plru = PseudoLruTree(16)
    for way in touches:
        plru.touch(way)
    assert 0 <= plru.victim() < 16
    assert plru.victim() != touches[-1]


def test_cache_install_lookup_remove():
    cache = CacheArray(4, 2, 64)
    cache.install(0x100, Line(1))
    assert 0x100 in cache
    assert cache.lookup(0x100).tag == 1
    assert cache.peek(0x100).tag == 1
    assert cache.lookup(0x200) is None
    assert cache.remove(0x100).tag == 1
    assert 0x100 not in cache
    assert cache.remove(0x100) is None


def test_set_conflict_and_victim():
    cache = CacheArray(2, 2, 64)  # addresses 0, 128, 256 map to set 0
    cache.install(0, Line("a"))
    cache.install(128, Line("b"))
    assert not cache.install_if_free(256, Line("c"))
    assert 256 not in cache and cache.occupancy() == 2
    with pytest.raises(ValueError):
        cache.install(256, Line("c"))
    victim = cache.choose_victim(256, lambda line: True)
    assert victim in (0, 128)
    cache.remove(victim)
    assert cache.install_if_free(256, Line("c"))
    assert cache.lookup(256).tag == "c"


def test_install_takes_the_lowest_free_way():
    cache = CacheArray(1, 4, 64)
    for i in range(4):
        cache.install(i * 64, Line(i))
    cache.remove(2 * 64)
    cache.remove(1 * 64)
    cache.install(4 * 64, Line(4))
    assert cache.way_of(4 * 64) == 1
    assert cache.way_of(2 * 64) is None


def _placement(cache):
    """Everything but the lines: which way each address sits in, in
    iteration order, and every set's PLRU bits."""
    return ([(addr, cache.way_of(addr)) for addr, _ in cache.items()],
            list(cache._plru))


def test_fill_absent_is_install_if_free_in_order():
    """The bulk warm-up fill leaves exactly what one ``install_if_free``
    per absent address leaves: residents untouched (no recency update),
    full sets skipped, same ways, same PLRU bits."""
    addrs = [a * 64 for a in (0, 5, 2, 5, 9, 1, 17, 33, 4, 0, 6, 3)]
    bulk, single = (CacheArray(4, 2, 64, make_line=lambda: Line("filled"))
                    for _ in range(2))
    for cache in (bulk, single):
        cache.install(5 * 64, Line("resident"))
    bulk.fill_absent(addrs)
    for addr in addrs:
        if addr not in single:
            single.install_if_free(addr, Line("filled"))
    assert _placement(bulk) == _placement(single)
    assert bulk.peek(5 * 64).tag == "resident"
    assert bulk.peek(9 * 64).tag == "filled"
    assert 33 * 64 not in bulk  # set 1 was full by then


def test_default_lines_are_built_on_first_read_and_only_then():
    built = []

    def make_line():
        built.append(Line("default"))
        return built[-1]

    cache = CacheArray(2, 2, 64, make_line=make_line)
    cache.fill_absent([0, 64, 128])
    cache.install(192, Line("given"))
    assert cache.occupancy() == 4 and 128 in cache and cache.way_of(128) == 1
    assert [addr for addr, _ in cache.items(defaults=False)] == [192]
    assert not built  # residency, ways and PLRU cost no line
    assert [(addr, line.tag) for addr, line in cache.items()] == [
        (0, "default"), (128, "default"), (64, "default"), (192, "given")]
    assert len(built) == 3  # throwaway copies: observers store nothing
    assert [addr for addr, _ in cache.items(defaults=False)] == [192]
    line = cache.peek(128)
    assert line is built[-1] and cache.lookup(128) is line
    assert cache.peek(128) is line and len(built) == 4
    assert cache.choose_victim(256, lambda line: line.tag == "default") == 0
    assert cache.remove(0) is built[-1] and len(built) == 5
    assert cache.remove(64).tag == "default" and len(built) == 6
    assert sorted(addr for addr, _ in cache.items(defaults=False)) == [
        128, 192]


def test_an_image_restores_only_into_its_own_geometry():
    """A 4x2 array refuses an 8x2 image, naming both geometries, and keeps
    what it held; an 8x2 array takes the image whole."""
    big = CacheArray(8, 2, 64)
    for block in (0, 3, 8, 13):
        big.install(block * 64, Line(block))
    big.lookup(0)
    image = big.image(lambda line: line.tag)
    small = CacheArray(4, 2, 64)
    small.install(64, Line("kept"))
    before = (_placement(small), small.sets, len(small._addrs))
    with pytest.raises(ValueError, match=r"8x2 .* 4x2 array"):
        small.restore(image, Line)
    assert (_placement(small), small.sets, len(small._addrs)) == before
    twin = CacheArray(8, 2, 64)
    twin.restore(image, Line)
    assert _placement(twin) == _placement(big)
    assert [line.tag for _, line in twin.items()] == [0, 8, 3, 13]


def test_victim_respects_evictability():
    cache = CacheArray(2, 2, 64)
    cache.install(0, Line("busy"))
    cache.install(128, Line("free"))
    victim = cache.choose_victim(256, lambda line: line.tag != "busy")
    assert victim == 128
    none = cache.choose_victim(256, lambda line: False)
    assert none is None


def test_block_stride_spreads_interleaved_blocks():
    """An L2 bank receiving every 16th block must use all of its sets."""
    n_nodes = 16
    cache = CacheArray(64, 2, 64, block_stride=n_nodes)
    sets = {cache.set_index(block * 64)
            for block in range(0, 64 * n_nodes, n_nodes)}
    assert len(sets) == 64  # every set used, no aliasing


def test_without_stride_interleaved_blocks_alias():
    cache = CacheArray(64, 2, 64, block_stride=1)
    sets = {cache.set_index(block * 64)
            for block in range(0, 64 * 16, 16)}
    assert len(sets) == 4  # gcd(16, 64) aliasing - the bug the stride fixes


def test_plru_touch_on_lookup_changes_victim():
    cache = CacheArray(1, 4, 64)
    for i in range(4):
        cache.install(i * 64, Line(i))
    cache.lookup(0)  # make way of addr 0 most recent
    victim = cache.choose_victim(4 * 64, lambda line: True)
    assert victim != 0


@given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
def test_cache_never_exceeds_capacity(addrs):
    cache = CacheArray(8, 4, 64)
    for addr in addrs:
        addr *= 64
        if addr in cache:
            continue
        if not cache.install_if_free(addr, Line(addr)):
            victim = cache.choose_victim(addr, lambda line: True)
            cache.remove(victim)
            cache.install(addr, Line(addr))
        assert cache.occupancy() <= 8 * 4
