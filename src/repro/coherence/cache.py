"""Set-associative cache arrays with tree pseudo-LRU replacement.

Both the private L1s (32 KB, 4-way) and the shared L2 banks (1 MB, 16-way)
use the same array structure; only the per-line metadata differs (the L2
lines additionally carry directory state, attached by the L2 controller).
"""

from __future__ import annotations

from typing import (Callable, Generic, Iterable, List, Optional, Tuple,
                    TypeVar)

L = TypeVar("L")


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


class CacheArray(Generic[L]):
    """Tag array indexed by block address (block = addr // line_bytes).

    ``block_stride`` handles bank interleaving: a shared L2 bank in an
    N-node chip only sees every N-th block, so its set index must use the
    bank-local block number (block // N) or only 1/N of its sets would
    ever be occupied.

    Sets are three parallel lists indexed by set number: the ways'
    addresses (``None`` for empty ways), their line objects, and the PLRU
    bits.  Residency lives in the address rows alone: a resident way
    whose line slot is still ``None`` holds the array's *default* line,
    which ``make_line`` builds the first time a controller reads it - a
    functional warm-up places a whole working set for the cost of the
    addresses, and a run pays for the lines it touches.
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
        self._addrs: List[List[Optional[int]]] = [
            [None] * ways for _ in range(sets)]
        self._lines: List[List[Optional[L]]] = [
            [None] * ways for _ in range(sets)]
        self._plru: List[int] = [0] * sets

    def set_index(self, addr: int) -> int:
        # The per-access methods inline this expression.
        return addr // self._set_bytes % self.sets

    def way_of(self, addr: int) -> Optional[int]:
        """The way ``addr`` is resident in, None if it is not."""
        row = self._addrs[addr // self._set_bytes % self.sets]
        return row.index(addr) if addr in row else None

    def _build(self, index: int, way: int) -> L:
        """First read of a resident way: build its default line, keep it."""
        line = self._lines[index][way] = self.make_line()
        return line

    def lookup(self, addr: int) -> Optional[L]:
        index = addr // self._set_bytes % self.sets
        row = self._addrs[index]
        if addr not in row:
            return None
        way = row.index(addr)
        keep, point = self._touch[way]
        plru = self._plru
        plru[index] = plru[index] & keep | point
        line = self._lines[index][way]
        return self._build(index, way) if line is None else line

    def peek(self, addr: int) -> Optional[L]:
        """Lookup without updating recency."""
        index = addr // self._set_bytes % self.sets
        row = self._addrs[index]
        if addr not in row:
            return None
        way = row.index(addr)
        line = self._lines[index][way]
        return self._build(index, way) if line is None else line

    def install_if_free(self, addr: int, line: Optional[L] = None) -> bool:
        """Place ``line`` (None: the default line, left unbuilt) at the
        first free way of ``addr``'s set and mark it most recently used;
        False (nothing changed) if the set is full."""
        index = addr // self._set_bytes % self.sets
        row = self._addrs[index]
        if None not in row:
            return False
        way = row.index(None)
        row[way] = addr
        self._lines[index][way] = line
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
        full are skipped.  No line is built."""
        rows = self._addrs
        set_bytes, sets = self._set_bytes, self.sets
        install = self.install_if_free
        for addr in addrs:
            if addr not in rows[addr // set_bytes % sets]:
                install(addr)

    def choose_victim(
        self, addr: int, evictable: Callable[[L], bool]
    ) -> Optional[int]:
        """Address of the pseudo-LRU evictable line in ``addr``'s set.

        Walks ways starting from the PLRU choice so busy (non-evictable)
        lines are skipped; returns None when every way is unevictable.
        """
        index = self.set_index(addr)
        row = self._addrs[index]
        lines = self._lines[index]
        ways = self.ways
        start = plru_victim(self._plru[index], ways)
        for offset in range(ways):
            way = (start + offset) % ways
            if row[way] is None:
                continue
            line = lines[way]
            if evictable(self._build(index, way) if line is None else line):
                return row[way]
        return None

    def remove(self, addr: int) -> Optional[L]:
        way = self.way_of(addr)
        if way is None:
            return None
        index = self.set_index(addr)
        line = self._lines[index][way]
        self._addrs[index][way] = self._lines[index][way] = None
        return self.make_line() if line is None else line

    def occupancy(self) -> int:
        return sum(self.ways - row.count(None) for row in self._addrs)

    def items(self, defaults: bool = True):
        """Yield every resident ``(addr, line)`` pair in set-then-way
        order, recency untouched and nothing stored: a way still holding
        its default line yields a throwaway copy of it, or is skipped with
        ``defaults=False`` (no controller has ever seen such a line)."""
        make_line = self.make_line
        for addrs, lines in zip(self._addrs, self._lines):
            for addr, line in zip(addrs, lines):
                if addr is None:
                    continue
                if line is not None:
                    yield addr, line
                elif defaults:
                    yield addr, make_line()

    def __contains__(self, addr: int) -> bool:
        return addr in self._addrs[addr // self._set_bytes % self.sets]
