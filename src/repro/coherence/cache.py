"""Set-associative cache arrays with tree pseudo-LRU replacement.

Both the private L1s (32 KB, 4-way) and the shared L2 banks (1 MB, 16-way)
use the same array structure; only the per-line metadata differs (the L2
lines additionally carry directory state, attached by the L2 controller).
"""

from __future__ import annotations

from typing import (Callable, Dict, Generic, Iterable, List, Optional, Tuple,
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

    Sets are three parallel lists indexed by set number: the ways' line
    objects (``None`` for empty ways), their addresses, and the PLRU bits.
    """

    def __init__(self, sets: int, ways: int, line_bytes: int,
                 block_stride: int = 1) -> None:
        if sets < 1:
            raise ValueError("cache needs at least one set")
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.block_stride = block_stride
        #: Bytes between blocks that are neighbours in this array.
        self._set_bytes = line_bytes * block_stride
        self._touch = plru_masks(ways)
        self._lines: List[List[Optional[L]]] = [
            [None] * ways for _ in range(sets)]
        self._addrs: List[List[Optional[int]]] = [
            [None] * ways for _ in range(sets)]
        self._plru: List[int] = [0] * sets
        #: addr -> way for O(1) lookup.
        self._where: Dict[int, int] = {}

    def set_index(self, addr: int) -> int:
        # lookup / peek / install_if_free inline this expression.
        return addr // self._set_bytes % self.sets

    def lookup(self, addr: int) -> Optional[L]:
        way = self._where.get(addr)
        if way is None:
            return None
        index = addr // self._set_bytes % self.sets
        keep, point = self._touch[way]
        plru = self._plru
        plru[index] = plru[index] & keep | point
        return self._lines[index][way]

    def peek(self, addr: int) -> Optional[L]:
        """Lookup without updating recency."""
        way = self._where.get(addr)
        if way is None:
            return None
        return self._lines[addr // self._set_bytes % self.sets][way]

    def install_if_free(self, addr: int, line: L) -> bool:
        """Place ``line`` at the first free way of ``addr``'s set and mark
        it most recently used; False (nothing changed) if the set is full."""
        index = addr // self._set_bytes % self.sets
        lines = self._lines[index]
        if None not in lines:
            return False
        way = lines.index(None)
        lines[way] = line
        self._addrs[index][way] = addr
        self._where[addr] = way
        keep, point = self._touch[way]
        plru = self._plru
        plru[index] = plru[index] & keep | point
        return True

    def install(self, addr: int, line: L) -> None:
        """Place ``line`` at a free way; caller must have evicted first."""
        if not self.install_if_free(addr, line):
            raise ValueError(f"no free way in set {self.set_index(addr)}")

    def fill_absent(self, addrs: Iterable[int],
                    make_line: Callable[[], L]) -> None:
        """Functional warm-up in bulk: ``install_if_free(addr, make_line())``
        for every address that is not resident, in order; addresses whose
        set is full are skipped."""
        where = self._where
        install = self.install_if_free
        for addr in addrs:
            if addr not in where:
                install(addr, make_line())

    def choose_victim(
        self, addr: int, evictable: Callable[[L], bool]
    ) -> Optional[int]:
        """Address of the pseudo-LRU evictable line in ``addr``'s set.

        Walks ways starting from the PLRU choice so busy (non-evictable)
        lines are skipped; returns None when every way is unevictable.
        """
        index = self.set_index(addr)
        lines = self._lines[index]
        ways = self.ways
        start = plru_victim(self._plru[index], ways)
        for offset in range(ways):
            way = (start + offset) % ways
            line = lines[way]
            if line is not None and evictable(line):
                return self._addrs[index][way]
        return None

    def remove(self, addr: int) -> Optional[L]:
        way = self._where.pop(addr, None)
        if way is None:
            return None
        index = self.set_index(addr)
        lines = self._lines[index]
        line = lines[way]
        lines[way] = None
        self._addrs[index][way] = None
        return line

    def occupancy(self) -> int:
        return len(self._where)

    def items(self):
        """Yield every resident ``(addr, line)`` pair, recency untouched."""
        for addrs, lines in zip(self._addrs, self._lines):
            for addr, line in zip(addrs, lines):
                if addr is not None:
                    yield addr, line

    def __contains__(self, addr: int) -> bool:
        return addr in self._where
