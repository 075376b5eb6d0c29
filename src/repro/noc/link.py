"""Pipelined links toward the network interfaces, and credits.

A flit sent during a router's switch-traversal cycle ``c`` spends
``latency`` cycles on the wire and is available to the receiver at the
start of cycle ``c + 1 + latency`` (so a 4-stage router plus a 1-cycle link
yields the paper's 5 cycles/hop, and a circuit hop yields 2 cycles/hop).

Channels *into* routers are not objects: every router-bound flit, credit
and undo notice is an entry of the arrival calendar the network's
:class:`~repro.noc.router.RouterCore` owns.  The two channels from a
router into its NI - ejected flits, and the credits of the NI's injection
buffers - are the queues below.

Credits flow on a dedicated reverse channel with the same timing.  Per
section 4.4, credits may also carry "undo circuit" notifications, either
piggybacked on a buffer credit or as a dedicated credit.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, Optional, Tuple

from repro.noc.flit import CircuitKey, Flit


class FlitLink:
    """One-directional flit channel from a router to its NI.

    ``watcher`` (the receiving NI) is poked on every send so an idle NI
    can skip its tick entirely - a pure simulation-speed optimisation with
    no architectural effect.  When the NI is registered with an
    activity-driven :class:`~repro.sim.kernel.Simulator` its
    ``kernel_wake`` is also poked with the arrival cycle, so a sleeping NI
    is rescheduled exactly when the flit lands.
    """

    __slots__ = ("latency", "_queue", "watcher")

    def __init__(self, latency: int = 1) -> None:
        self.latency = latency
        self._queue: Deque[Tuple[int, Flit]] = deque()
        self.watcher = None

    def send(self, flit: Flit, cycle: int) -> None:
        """Put ``flit`` on the wire during ``cycle`` (its ST cycle)."""
        due = cycle + 1 + self.latency
        self._queue.append((due, flit))
        watcher = self.watcher
        if watcher is not None:
            # Watchers are NIs, which define kernel_wake (None until
            # registered with an activity-driven kernel).
            watcher.incoming += 1
            wake = watcher.kernel_wake
            if wake is not None:
                wake(due)

    def arrivals(self, cycle: int) -> Iterator[Flit]:
        """Yield flits available to the receiver at ``cycle``."""
        queue = self._queue
        watcher = self.watcher
        while queue and queue[0][0] <= cycle:
            if watcher is not None:
                watcher.incoming -= 1
            yield queue.popleft()[1]

    def in_flight(self) -> int:
        return len(self._queue)


class Credit:
    """A credit, optionally carrying circuit-undo information."""

    __slots__ = ("vn", "vc", "undo_key")

    def __init__(
        self,
        vn: Optional[int] = None,
        vc: Optional[int] = None,
        undo_key: Optional[CircuitKey] = None,
    ) -> None:
        self.vn = vn
        self.vc = vc
        self.undo_key = undo_key

    @property
    def is_buffer_credit(self) -> bool:
        return self.vn is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Credit(vn={self.vn}, vc={self.vc}, undo={self.undo_key})"


class CreditLink(FlitLink):
    """Reverse channel returning credits to an NI: the same timing and
    watcher contract as :class:`FlitLink`, carrying Credit objects."""

    __slots__ = ()
