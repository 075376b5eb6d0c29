"""Messages, flits and credits.

A :class:`Message` is what the protocol layer hands to a network interface;
the NI segments it into 16-byte :class:`Flit` objects at injection.  The
NoC layer treats the protocol meaning of a message as opaque (``kind`` is
only used for statistics), but it does understand the circuit-related
fields: requests may carry a reservation walk, and replies may ride a
previously reserved circuit.  Flits and :class:`Credit` objects travel as
entries of the router core's arrival calendar (:mod:`repro.noc.router`).
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional, Tuple

#: Circuit identity: (reply destination node, block address, request uid).
#: The paper's routers match on (destID, block@); the uid component exists
#: only to disambiguate back-to-back transactions for the same line during
#: the few cycles an undo notification is still propagating.
CircuitKey = Tuple[int, int, int]

_msg_ids = itertools.count()


class Message:
    """A protocol message travelling through the network."""

    __slots__ = (
        "uid",
        "src",
        "dest",
        "vn",
        "n_flits",
        "kind",
        "payload",
        # circuit reservation (requests)
        "builds_circuit",
        "circuit_key",
        "reply_flits",
        "expected_turnaround",
        "walk",
        # circuit use (replies)
        "uses_circuit",
        "ride_key",
        "final_dest",
        "circuit_eligible",
        "outcome_hint",
        "outcome",
        "plan",
        # latency accounting
        "enqueued_cycle",
        "injected_cycle",
        "net_acc",
        "queue_acc",
    )

    def __init__(
        self,
        src: int,
        dest: int,
        vn: int,
        n_flits: int,
        kind: str,
        payload: Any = None,
    ) -> None:
        if n_flits < 1:
            raise ValueError("a message needs at least one flit")
        if vn not in (0, 1):
            raise ValueError("vn must be 0 (requests) or 1 (replies)")
        self.uid = next(_msg_ids)
        self.src = src
        self.dest = dest
        self.vn = vn
        self.n_flits = n_flits
        self.kind = kind
        self.payload = payload
        # -- circuit reservation (requests) --------------------------------
        #: This message reserves a circuit for its reply as it travels.
        self.builds_circuit = False
        #: Identity of the circuit being reserved / ridden.
        self.circuit_key: Optional[CircuitKey] = None
        #: Flit count of the expected reply (timed window occupancy).
        self.reply_flits = 0
        #: Destination turnaround estimate in cycles (timed estimate).
        self.expected_turnaround = 0
        #: CircuitWalk accumulated while reserving (set at injection).
        self.walk: Any = None
        # -- circuit use (replies) -----------------------------------------
        #: Resolved at the origin NI: this reply rides its own circuit.
        self.uses_circuit = False
        #: Scroungers ride a circuit reserved for another reply.
        self.ride_key: Optional[CircuitKey] = None
        #: Scroungers: ultimate destination after the intermediate hop.
        self.final_dest: Optional[int] = None
        #: Reply could have had a circuit built (L2_REPLY/L2_WB_ACK/MEMORY).
        self.circuit_eligible = False
        #: Protocol-provided outcome override (e.g. "undone" after the L2
        #: forwarded a request whose circuit had already been built).
        self.outcome_hint: Optional[str] = None
        #: Final Fig. 6 classification, recorded once at send time.
        self.outcome: Optional[str] = None
        #: ReplyPlan attached by the circuit policy at the origin NI.
        self.plan: Any = None
        # -- latency accounting (accumulated across scrounger legs) --------
        self.enqueued_cycle = -1
        self.injected_cycle = -1
        self.net_acc = 0
        self.queue_acc = 0

    @property
    def queueing_latency(self) -> int:
        """Cycles spent waiting in NI queues (all legs)."""
        return self.queue_acc

    @property
    def network_latency(self) -> int:
        """Cycles spent inside the network (all legs)."""
        return self.net_acc

    def flits(self) -> List["Flit"]:
        """Segment into head/body/tail flits (single-flit = head and tail)."""
        return [
            Flit(self, index, index == 0, index == self.n_flits - 1)
            for index in range(self.n_flits)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.kind} #{self.uid} {self.src}->{self.dest} "
            f"vn={self.vn} flits={self.n_flits})"
        )


class Flit:
    """One 16-byte unit of a message."""

    __slots__ = ("msg", "index", "is_head", "is_tail", "on_circuit", "dst_vc")

    def __init__(self, msg: Message, index: int, is_head: bool, is_tail: bool) -> None:
        self.msg = msg
        self.index = index
        self.is_head = is_head
        self.is_tail = is_tail
        #: True while this flit travels on a reserved circuit (set at NI).
        self.on_circuit = False
        #: Input VC (index within the VN) targeted at the next router.
        self.dst_vc = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"Flit({role}{self.index} of {self.msg!r})"


class Credit:
    """A buffer credit flowing upstream, optionally carrying an undo
    notice (section 4.4: piggybacked on a buffer credit or on its own)."""

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


def control_message(src: int, dest: int, vn: int, kind: str, payload: Any = None) -> Message:
    """Single-flit message (requests, acknowledgements)."""
    return Message(src, dest, vn, 1, kind, payload)


def data_message(
    src: int, dest: int, vn: int, kind: str, flit_bytes: int, line_bytes: int,
    payload: Any = None,
) -> Message:
    """Cache-line-carrying message: header flit + line payload flits."""
    n_flits = 1 + (line_bytes + flit_bytes - 1) // flit_bytes
    return Message(src, dest, vn, n_flits, kind, payload)
