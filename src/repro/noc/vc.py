"""Per-virtual-channel state for router input and output units.

Input VCs hold the buffer and the packet's progress through the pipeline
(the paper's G/R/O/C fields); output VCs hold allocation state and the
downstream credit count (G/I/C fields).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Optional, Tuple

from repro.noc.flit import Flit


class VcStage(enum.Enum):
    """Global state (G) of an input VC."""

    IDLE = "I"
    VA = "V"  # route computed, waiting for an output VC
    ACTIVE = "A"  # output VC granted, flits moving through SA/ST


class InputVc:
    """One input virtual channel: buffer plus pipeline state."""

    __slots__ = (
        "vn",
        "index",
        "depth",
        "buffer",
        "stage",
        "route",
        "out_vc",
        "out_obj",
        "ready_cycle",
        "granted_pending",
        "scode",
        "rcode",
        "rkey",
        "va_arb",
    )

    def __init__(self, vn: int, index: int, depth: int) -> None:
        self.vn = vn
        self.index = index
        self.depth = depth
        #: (flit, arrival_cycle, credit_vc) in arrival order; ``credit_vc``
        #: is the VC whose upstream credit the flit consumed (it can differ
        #: from this VC when a fragmented circuit redirects an arrival).
        self.buffer: Deque[Tuple[Flit, int, int]] = deque()
        self.stage = VcStage.IDLE
        self.route: Optional[int] = None
        self.out_vc: Optional[int] = None
        #: The granted OutputVc object itself; set alongside ``out_vc`` so
        #: the hot SA/ST stages skip the outputs[route].vcs[vn][out_vc]
        #: triple lookup.
        self.out_obj: Optional["OutputVc"] = None
        #: First cycle at which the current pipeline stage may act.
        self.ready_cycle = 0
        #: A flit won SA and awaits switch traversal.
        self.granted_pending = False
        # Constants filled in by the owning Router (it knows the port):
        #: switch-allocation phase-1 candidate id, ``(vn << 4) | index``.
        self.scode = (vn << 4) | index
        #: VC-allocation phase-2 requester id, ``(port << 8) | scode``.
        self.rcode = self.scode
        #: ``(port, vn, index)`` ownership key written to ``allocated_to``.
        self.rkey: Tuple = (None, vn, index)
        #: Per-VC phase-1 VC-allocation arbiter (installed by the Router).
        self.va_arb = None

    def occupancy(self) -> int:
        return len(self.buffer)

    def reset_for_next_packet(self, cycle: int) -> None:
        """Tail left: clear per-packet state (caller restarts a queued head)."""
        self.route = None
        self.out_vc = None
        self.out_obj = None
        self.granted_pending = False
        self.stage = VcStage.IDLE


class OutputVc:
    """Downstream VC bookkeeping at an output unit."""

    __slots__ = ("vn", "index", "credits", "allocated_to", "code", "va_arb",
                 "proposals")

    def __init__(self, vn: int, index: int, credits: int) -> None:
        self.vn = vn
        self.index = index
        self.credits = credits
        #: (input_port, vn, vc_index) of the packet owning this output VC.
        self.allocated_to: Optional[Tuple[int, int, int]] = None
        #: phase-1 VC-allocation option id, ``(port << 8) | (vn << 4) | index``
        #: (the Router fills in the port bits once it knows them).
        self.code = (vn << 4) | index
        #: Per-VC phase-2 VC-allocation arbiter (installed by the Router).
        self.va_arb = None
        #: Transient phase-1 proposers this cycle (reused, cleared by VA).
        self.proposals: list = []

    @property
    def is_free(self) -> bool:
        return self.allocated_to is None
