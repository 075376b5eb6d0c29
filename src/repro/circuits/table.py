"""Circuit reservation state: table entries and reservation walks.

A circuit is identified by :func:`circuit_key`, ``(reply destination node,
block address, request uid)`` - the requestor identifier and cache line
address the paper stores at each router (Fig. 3), plus the uid that keeps
two requests for the same line apart.  A router input port's circuits are
a plain ``{key: CircuitEntry}`` dict in the policy's store
(``CircuitPolicy.tables``); the request accumulates a :class:`CircuitWalk`
while reserving, which is delivered to the destination network interface
so the reply knows exactly what was reserved (including the timed
windows).
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.flit import CircuitKey


class CircuitEntry:
    """One reserved circuit at a router input port."""

    __slots__ = (
        "key",
        "in_port",
        "out_port",
        "window_start",
        "window_end",
        "vc_index",
        "fwd_reserved",
        "fwd_vc",
        "built_cycle",
    )

    def __init__(
        self,
        key: CircuitKey,
        in_port: int,
        out_port: int,
        built_cycle: int,
        window_start: Optional[int] = None,
        window_end: Optional[int] = None,
        vc_index: Optional[int] = None,
        fwd_reserved: bool = True,
        fwd_vc: Optional[int] = None,
    ) -> None:
        self.key = key
        self.in_port = in_port
        self.out_port = out_port
        self.built_cycle = built_cycle
        #: Timed reservations only: inclusive cycle window at this router.
        self.window_start = window_start
        self.window_end = window_end
        #: Fragmented only: which input circuit VC is reserved.
        self.vc_index = vc_index
        #: Fragmented only: is the next reply hop (downstream) also reserved,
        #: and if so into which circuit VC should flits be forwarded.
        self.fwd_reserved = fwd_reserved
        self.fwd_vc = fwd_vc

    @property
    def timed(self) -> bool:
        return self.window_start is not None

    def live(self, cycle: int) -> bool:
        """Timed entries self-expire when their end counter reaches zero."""
        return self.window_end is None or self.window_end >= cycle

    def overlaps(self, start: int, end: int) -> bool:
        assert self.timed
        return not (end < self.window_start or start > self.window_end)


def purge_expired(table: Dict[CircuitKey, CircuitEntry], cycle: int) -> int:
    """Drop ``table``'s entries whose timed window has passed; returns
    how many entries stay live."""
    dead = [key for key, entry in table.items()
            if entry.window_end is not None and entry.window_end < cycle]
    for key in dead:
        del table[key]
    return len(table)


class HopRecord:
    """Outcome of one reservation attempt along the walk."""

    __slots__ = ("node", "in_port", "out_port", "reserved", "vc_index",
                 "window_start", "window_end")

    def __init__(
        self,
        node: int,
        in_port: int,
        out_port: int,
        reserved: bool,
        vc_index: Optional[int] = None,
        window_start: Optional[int] = None,
        window_end: Optional[int] = None,
    ) -> None:
        self.node = node
        self.in_port = in_port
        self.out_port = out_port
        self.reserved = reserved
        self.vc_index = vc_index
        self.window_start = window_start
        self.window_end = window_end


class CircuitWalk:
    """Reservation state carried by a request while it travels.

    ``hops`` is appended in request order R0..Rn; the reply traverses the
    same routers in reverse (Rn first).  For timed circuits, the accumulated
    ``delay`` shifts later routers' estimates when a slot had to be moved
    (SlackDelay variants), and the windows let the origin NI solve for a
    feasible reply departure time.
    """

    __slots__ = (
        "key",
        "reply_flits",
        "path_hops",
        "turnaround",
        "hops",
        "failed",
        "delay",
        "aborted",
    )

    def __init__(
        self,
        key: CircuitKey,
        reply_flits: int,
        path_hops: int,
        turnaround: int,
    ) -> None:
        self.key = key
        self.reply_flits = reply_flits
        self.path_hops = path_hops
        self.turnaround = turnaround
        self.hops: List[HopRecord] = []
        #: Complete circuits: a reservation failed; stop reserving.
        self.failed = False
        #: SlackDelay variants: total later-shift accumulated so far.
        self.delay = 0
        #: Complete circuits: undo already initiated from the failure router.
        self.aborted = False

    @property
    def fully_reserved(self) -> bool:
        return bool(self.hops) and not self.failed and all(
            hop.reserved for hop in self.hops
        )

    @property
    def reserved_hops(self) -> List[HopRecord]:
        return [hop for hop in self.hops if hop.reserved]

    def previous_hop(self) -> Optional[HopRecord]:
        """The reply-downstream hop relative to the router being reserved."""
        return self.hops[-1] if self.hops else None

    def feasible_departure(
        self, ready: int, circuit_hop_cycles: int, ni_link_cycles: int
    ) -> Optional[int]:
        """Earliest reply departure >= ``ready`` hitting every timed window.

        The reply's head, sent at cycle ``t``, reaches hop ``i`` (request
        order) at ``t + ni_link_cycles + (n - i) * circuit_hop_cycles``; the
        tail follows ``reply_flits - 1`` cycles later and must also fit.
        Returns None when no departure time satisfies every window.
        """
        if not self.hops:
            return ready
        n = len(self.hops) - 1
        t_min = ready
        t_max: Optional[int] = None
        for i, hop in enumerate(self.hops):
            if hop.window_start is None:
                continue
            offset = ni_link_cycles + (n - i) * circuit_hop_cycles
            t_min = max(t_min, hop.window_start - offset)
            latest = hop.window_end - (self.reply_flits - 1) - offset
            t_max = latest if t_max is None else min(t_max, latest)
        if t_max is not None and t_min > t_max:
            return None
        return t_min


def circuit_key(reply_dest: int, block: int, uid: int) -> CircuitKey:
    """The one circuit identity: (requestor node, cache line address, uid
    of the request reserving it)."""
    return (reply_dest, block, uid)
