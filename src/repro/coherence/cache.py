"""Set-associative cache arrays with tree pseudo-LRU replacement.

Both the private L1s (32 KB, 4-way) and the shared L2 banks (1 MB, 16-way)
use the same array structure; only the per-line metadata differs (the L2
lines additionally carry directory state, attached by the L2 controller).
"""

from __future__ import annotations

import zlib
from array import array
from typing import (Callable, Dict, Generic, Iterable, List, Optional,
                    Tuple, TypeVar)

L = TypeVar("L")

#: The address of an empty way.
EMPTY = -1


# ----------------------------------------------------------------------
# Binary-tree pseudo-LRU for a power-of-two number of ways.  A set's
# state is one int: bit ``n`` is node ``n`` of the tree in heap order
# (root 0, children ``2n + 1`` / ``2n + 2``), set when the victim walk
# turns right there.  The ways are the leaves, left to right.
# ----------------------------------------------------------------------

def plru_masks(ways: int) -> List[Tuple[int, int]]:
    """Per-way ``(keep, set)`` masks: touching ``way`` (marking it most
    recently used) is ``bits & keep | set`` - every node on the way's
    root path is pointed at the half the way is *not* in."""
    if ways < 1 or ways & (ways - 1):
        raise ValueError("pseudo-LRU needs a power-of-two way count")
    masks = []
    for way in range(ways):
        path = point_right = 0
        node = ways - 1 + way  # the way's leaf
        while node:
            parent = (node - 1) >> 1
            path |= 1 << parent
            if node == 2 * parent + 1:  # in the left half: point right
                point_right |= 1 << parent
            node = parent
        masks.append((~path, point_right))
    return masks


def plru_victim(bits: int, ways: int) -> int:
    """Follow the bits toward the pseudo-least-recently-used way."""
    node = 0
    while node < ways - 1:
        node = 2 * node + 1 + ((bits >> node) & 1)
    return node - (ways - 1)


def _frame(values: array) -> bytes:
    """An int64 array as one zlib frame.  Level 1 is enough: addresses,
    PLRU bits and slot numbers are int64s whose high bytes are zero, and
    an image is taken once per program."""
    return zlib.compress(values, 1)


class CacheArray(Generic[L]):
    """Tag array indexed by block address (block = addr // line_bytes).

    ``block_stride`` handles bank interleaving: a shared L2 bank in an
    N-node chip only sees every N-th block, so its set index must use the
    bank-local block number (block // N) or only 1/N of its sets would
    ever be occupied.

    The ways are flat: way ``w`` of set ``s`` is slot ``s * ways + w``.
    ``_addrs`` is one int64 array of slots holding the way's address
    (``-1`` for an empty way), ``_lines`` maps the slots whose line object
    exists to it, and ``_plru`` is one int64 array of each set's PLRU
    bits.  Residency lives in ``_addrs`` alone: a resident way with no
    ``_lines`` entry holds the array's *default* line, which ``make_line``
    builds the first time a controller reads it - a functional warm-up
    places a whole working set for the cost of the addresses, and a run
    pays for the lines it touches.  Addresses must fit in an int64.

    :meth:`image` keeps the two arrays and the built slots as zlib frames
    and the built lines encoded; :meth:`restore` decompresses the frames
    straight into the live arrays of an array of the same geometry.
    """

    def __init__(self, sets: int, ways: int, line_bytes: int,
                 block_stride: int = 1,
                 make_line: Optional[Callable[[], L]] = None) -> None:
        if sets < 1:
            raise ValueError("cache needs at least one set")
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.block_stride = block_stride
        #: Builds a default line; arrays without one (the L1s) are handed
        #: every line they hold.
        self.make_line = make_line
        #: Bytes between blocks that are neighbours in this array.
        self._set_bytes = line_bytes * block_stride
        self._touch = plru_masks(ways)
        self._addrs = array("q", [EMPTY]) * (sets * ways)
        self._lines: Dict[int, L] = {}
        self._plru = array("q", [0]) * sets

    def set_index(self, addr: int) -> int:
        # The per-access methods inline this expression.
        return addr // self._set_bytes % self.sets

    def _slot(self, addr: int) -> int:
        """The slot ``addr`` is resident in, -1 if it is not."""
        ways = self.ways
        base = addr // self._set_bytes % self.sets * ways
        row = self._addrs[base:base + ways]
        return base + row.index(addr) if addr in row else EMPTY

    def way_of(self, addr: int) -> Optional[int]:
        """The way ``addr`` is resident in, None if it is not."""
        slot = self._slot(addr)
        return None if slot < 0 else slot % self.ways

    def _build(self, slot: int) -> L:
        """First read of a resident way: build its default line, keep it."""
        line = self._lines[slot] = self.make_line()
        return line

    def lookup(self, addr: int) -> Optional[L]:
        ways = self.ways
        index = addr // self._set_bytes % self.sets
        base = index * ways
        row = self._addrs[base:base + ways]
        if addr not in row:  # L1 misses are common: no raise on them
            return None
        slot = base + row.index(addr)
        keep, point = self._touch[slot - base]
        plru = self._plru
        plru[index] = plru[index] & keep | point
        line = self._lines.get(slot)
        return self._build(slot) if line is None else line

    def peek(self, addr: int) -> Optional[L]:
        """Lookup without updating recency."""
        ways = self.ways
        base = addr // self._set_bytes % self.sets * ways
        try:  # the directory's peeks nearly always hit: one scan
            slot = base + self._addrs[base:base + ways].index(addr)
        except ValueError:
            return None
        line = self._lines.get(slot)
        return self._build(slot) if line is None else line

    def install_if_free(self, addr: int, line: Optional[L] = None) -> bool:
        """Place ``line`` (None: the default line, left unbuilt) at the
        first free way of ``addr``'s set and mark it most recently used;
        False (nothing changed) if the set is full."""
        ways = self.ways
        index = addr // self._set_bytes % self.sets
        base = index * ways
        row = self._addrs[base:base + ways]
        if EMPTY not in row:
            return False
        way = row.index(EMPTY)
        self._addrs[base + way] = addr
        if line is not None:
            self._lines[base + way] = line
        keep, point = self._touch[way]
        plru = self._plru
        plru[index] = plru[index] & keep | point
        return True

    def install(self, addr: int, line: L) -> None:
        """Place ``line`` at a free way; caller must have evicted first."""
        if not self.install_if_free(addr, line):
            raise ValueError(f"no free way in set {self.set_index(addr)}")

    def fill_absent(self, addrs: Iterable[int]) -> None:
        """Functional warm-up in bulk: ``install_if_free(addr)`` for every
        address that is not resident, in order; addresses whose set is
        full are skipped.  No line is built.

        The loop repeats :meth:`install_if_free`'s placement inline: a
        call per address makes the 16-core canneal prewarm's fill (126 k
        addresses) about 40 % slower.  ``tests/test_cache_array.py::
        test_fill_absent_is_install_if_free_in_order`` and the oracle
        test hold the two copies to the same result."""
        slots, plru, touch = self._addrs, self._plru, self._touch
        set_bytes, sets, ways = self._set_bytes, self.sets, self.ways
        for addr in addrs:
            index = addr // set_bytes % sets
            base = index * ways
            row = slots[base:base + ways]
            if addr in row:
                continue
            try:
                way = row.index(EMPTY)
            except ValueError:  # the set is full
                continue
            slots[base + way] = addr
            keep, point = touch[way]
            plru[index] = plru[index] & keep | point

    def choose_victim(
        self, addr: int, evictable: Callable[[L], bool]
    ) -> Optional[int]:
        """Address of the pseudo-LRU evictable line in ``addr``'s set.

        Walks ways starting from the PLRU choice so busy (non-evictable)
        lines are skipped; returns None when every way is unevictable.
        """
        index = self.set_index(addr)
        ways = self.ways
        base = index * ways
        start = plru_victim(self._plru[index], ways)
        for offset in range(ways):
            slot = base + (start + offset) % ways
            resident = self._addrs[slot]
            if resident == EMPTY:
                continue
            line = self._lines.get(slot)
            if evictable(self._build(slot) if line is None else line):
                return resident
        return None

    def remove(self, addr: int) -> Optional[L]:
        slot = self._slot(addr)
        if slot < 0:
            return None
        self._addrs[slot] = EMPTY
        line = self._lines.pop(slot, None)
        return self.make_line() if line is None else line

    def occupancy(self) -> int:
        return len(self._addrs) - self._addrs.count(EMPTY)

    def items(self, defaults: bool = True):
        """Yield every resident ``(addr, line)`` pair in set-then-way
        order, recency untouched and nothing stored: a way still holding
        its default line yields a throwaway copy of it, or is skipped with
        ``defaults=False`` (no controller has ever seen such a line)."""
        lines, make_line = self._lines, self.make_line
        for slot, addr in enumerate(self._addrs):
            if addr == EMPTY:
                continue
            line = lines.get(slot)
            if line is not None:
                yield addr, line
            elif defaults:
                yield addr, make_line()

    def image(self, encode: Callable[[L], object]) -> tuple:
        """Everything this array holds, sharing no object with it: its
        ``(sets, ways)``, the addresses, the PLRU bits and the slots of
        the built lines (in ``_lines`` order) as zlib frames of their
        int64 arrays, and each line as ``encode(line)``, an immutable
        value (equal values may be one object)."""
        return ((self.sets, self.ways), _frame(self._addrs),
                _frame(self._plru), _frame(array("q", self._lines)),
                list(map(encode, self._lines.values())))

    def restore(self, image: tuple, decode: Callable[[object], L]) -> None:
        """Make this array hold exactly what :meth:`image` captured, with
        fresh line objects from ``decode``: the frames are decompressed
        straight into the live arrays.  An image of another geometry
        raises ``ValueError`` and changes nothing."""
        geometry, addrs, plru, slots, values = image
        if geometry != (self.sets, self.ways):
            raise ValueError(
                "a cache image of {}x{} (sets x ways) cannot restore into "
                "a {}x{} array".format(*geometry, self.sets, self.ways))
        memoryview(self._addrs).cast("B")[:] = zlib.decompress(addrs)
        memoryview(self._plru).cast("B")[:] = zlib.decompress(plru)
        self._lines = dict(zip(array("q", zlib.decompress(slots)),
                               map(decode, values)))

    def __contains__(self, addr: int) -> bool:
        ways = self.ways
        base = addr // self._set_bytes % self.sets * ways
        return addr in self._addrs[base:base + ways]
