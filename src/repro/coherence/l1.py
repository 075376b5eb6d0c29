"""Private L1 cache controller (MESI, blocking in-order core).

State machine notes:

* The core blocks on every miss (single outstanding demand request), so the
  only transient state needed is the single pending miss record.
* E and M replacements send ``WB_L1`` (the paper's "replacement data from
  L1") and are acknowledged with ``L2_WB_ACK``; S replacements are silent.
  Evicted E/M lines sit in a writeback buffer until the ack arrives so the
  L1 can still answer a forwarded request that raced with the writeback.
* On a data reply delivered over a guaranteed complete circuit the L2 has
  already self-acknowledged (section 4.6): ``payload.ack_suppressed`` tells
  this controller to skip the ``L1_DATA_ACK`` and count it as eliminated.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.coherence.base import ScheduledController
from repro.coherence.cache import CacheArray
from repro.coherence.messages import Kind, MessageFactory
from repro.noc.flit import Message
from repro.sim.stats import Stats


class L1State(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"


class L1Line:
    __slots__ = ("state",)

    def __init__(self, state: L1State) -> None:
        self.state = state


class L1Controller(ScheduledController):
    """One core's private L1 data cache + coherence engine."""

    def __init__(
        self,
        node: int,
        config,
        factory: MessageFactory,
        ni,
        home_of: Callable[[int], int],
        stats: Stats,
    ) -> None:
        super().__init__()
        self.node = node
        self.config = config
        self.factory = factory
        self.ni = ni
        self.home_of = home_of
        self.stats = stats
        cache = config.cache
        self.array: CacheArray[L1Line] = CacheArray(
            cache.l1_sets, cache.l1_assoc, cache.line_bytes
        )
        #: (addr, is_write) of the single outstanding demand miss.
        self.pending: Optional[Tuple[int, bool]] = None
        #: Evicted-but-unacknowledged lines: addr -> was_modified.
        self.wb_buffer: Dict[int, bool] = {}
        #: The pending miss waits for our own writeback to be acknowledged.
        self._deferred = False
        #: Callback restarting the blocked core (set by the tile).
        self.resume_core: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------
    # Functional warmup (no messages, no timing).
    # ------------------------------------------------------------------
    def prewarm_line(self, addr: int, state: L1State) -> bool:
        """Install a line directly (functional warmup); False if set full."""
        return addr in self.array or self.array.install_if_free(
            addr, L1Line(state))

    # ------------------------------------------------------------------
    # Core-facing interface.
    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool, cycle: int) -> bool:
        """Demand access; returns True on hit (core continues next cycle)."""
        line = self.array.lookup(addr)
        if line is not None:
            if not is_write:
                self.stats.bump("l1.load_hits")
                return True
            if line.state is L1State.MODIFIED:
                self.stats.bump("l1.store_hits")
                return True
            if line.state is L1State.EXCLUSIVE:
                line.state = L1State.MODIFIED  # silent E -> M upgrade
                self.stats.bump("l1.store_hits")
                return True
            # Store to a SHARED line: needs exclusivity (upgrade miss).
        assert self.pending is None, "blocking core cannot have two misses"
        self.pending = (addr, is_write)
        self.stats.bump("l1.store_misses" if is_write else "l1.load_misses")
        if addr in self.wb_buffer:
            # Our own writeback for this line is still in flight; requesting
            # now could reorder with it on the request VN.  Issue once the
            # L2_WB_ACK arrives (the core stays blocked meanwhile).
            self._deferred = True
            self.stats.bump("l1.deferred_rerequests")
            return False
        self._issue_miss(addr, is_write, cycle)
        return False

    def _issue_miss(self, addr: int, is_write: bool, cycle: int) -> None:
        home = self.home_of(addr)
        msg = (self.factory.getx if is_write else self.factory.gets)(
            self.node, home, addr
        )
        self.ni.enqueue(msg, cycle)

    # ------------------------------------------------------------------
    # Message handling (dispatched by the tile).
    # ------------------------------------------------------------------
    def receive(self, msg: Message, cycle: int) -> None:
        handler = {
            Kind.L2_REPLY: self._on_data,
            Kind.L1_TO_L1: self._on_data,
            Kind.L2_WB_ACK: self._on_wb_ack,
            Kind.INV: self._on_inv,
            Kind.FWD_GETS: self._on_forward,
            Kind.FWD_GETX: self._on_forward,
        }[msg.kind]
        latency = self.config.cache.l1_hit_cycles
        # partial, not a lambda: pending events must survive checkpoint
        # pickling (repro.sim.checkpoint).
        self.schedule(cycle + latency, partial(handler, msg))

    def _on_data(self, msg: Message, cycle: int) -> None:
        addr = msg.payload.addr
        assert self.pending is not None and self.pending[0] == addr, (
            f"L1 {self.node}: unexpected data reply for {addr:#x}"
        )
        _addr, is_write = self.pending
        self.pending = None
        if is_write:
            state = L1State.MODIFIED
        elif msg.payload.exclusive:
            state = L1State.EXCLUSIVE
        else:
            state = L1State.SHARED
        self._install(addr, state, cycle)
        if msg.payload.ack_suppressed:
            # The ACK was made unnecessary by the complete circuit (4.6);
            # the paper accounts these as zero-latency eliminated replies.
            self.stats.bump("circuit.outcome.eliminated")
            self.stats.bump("circuit.replies_total")
            self.stats.bump(f"msg.count.{Kind.L1_DATA_ACK}_eliminated")
            self.stats.observe("lat.net.norep", 0.0)
            self.stats.observe("lat.queue.norep", 0.0)
        elif msg.kind in (Kind.L2_REPLY, Kind.L1_TO_L1):
            home = self.home_of(addr)
            self.ni.enqueue(self.factory.l1_data_ack(self.node, home, addr), cycle)
        if self.resume_core is not None:
            self.resume_core(cycle)

    def _install(self, addr: int, state: L1State, cycle: int) -> None:
        if addr in self.array:
            line = self.array.lookup(addr)
            line.state = state
            return
        line = L1Line(state)
        if not self.array.install_if_free(addr, line):
            victim = self.array.choose_victim(addr, lambda line: True)
            assert victim is not None
            self._evict(victim, cycle)
            self.array.install(addr, line)

    def _evict(self, addr: int, cycle: int) -> None:
        line = self.array.remove(addr)
        assert line is not None
        if line.state is not L1State.MODIFIED:
            # Clean (S/E) replacements are silent; the L2 copy is valid.
            self.stats.bump("l1.silent_evictions")
            return
        self.wb_buffer[addr] = True
        home = self.home_of(addr)
        wb = self.factory.wb_l1(self.node, home, addr)
        wb.payload.exclusive = True  # dirty-data flag for the L2
        self.ni.enqueue(wb, cycle)
        self.stats.bump("l1.writebacks")

    def _on_wb_ack(self, msg: Message, cycle: int) -> None:
        self.wb_buffer.pop(msg.payload.addr, None)
        if self._deferred and self.pending is not None:
            addr, is_write = self.pending
            if addr == msg.payload.addr:
                self._deferred = False
                self._issue_miss(addr, is_write, cycle)

    def _on_inv(self, msg: Message, cycle: int) -> None:
        addr = msg.payload.addr
        self.array.remove(addr)
        # Acked even when we silently dropped the line (stale sharer) or
        # while a demand miss is pending: the directory counts every ack.
        home = self.home_of(addr)
        self.ni.enqueue(self.factory.l1_inv_ack(self.node, home, addr), cycle)
        self.stats.bump("l1.invalidations")

    def _on_forward(self, msg: Message, cycle: int) -> None:
        addr = msg.payload.addr
        requestor = msg.payload.requestor
        exclusive = msg.kind == Kind.FWD_GETX
        line = self.array.peek(addr)
        if line is not None and line.state in (L1State.EXCLUSIVE, L1State.MODIFIED):
            if exclusive:
                self.array.remove(addr)
            else:
                line.state = L1State.SHARED
        elif addr in self.wb_buffer:
            # Our writeback is in flight; serve the forward from the buffer.
            if exclusive:
                self.wb_buffer.pop(addr, None)
        else:
            # Silent clean-E replacement raced with the forward.  The line
            # was never written (a modified line would have a writeback in
            # flight), so the L2's copy is still valid; hardware would NACK
            # and let the L2 supply the data - we fold that round trip into
            # the same L1_TO_L1 message (see DESIGN.md).
            self.stats.bump("l1.stale_forwards")
        reply = self.factory.l1_to_l1(
            self.node, requestor, addr, exclusive,
            undone_circuit=msg.payload.undone_circuit,
        )
        self.ni.enqueue(reply, cycle)
        self.stats.bump("l1.forwards_served")

    # ------------------------------------------------------------------
    def busy(self) -> bool:
        return self.pending is not None or bool(self.wb_buffer) or bool(self._events)
