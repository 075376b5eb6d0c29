"""Shared L2 bank with integrated directory (MESI, inclusive).

Each tile owns one bank; lines are interleaved across banks by block
address.  The directory blocks a line while a transaction is in flight
(until the requestor's ``L1_DATA_ACK``), queueing later requests - this is
the serialisation the NoAck optimisation (section 4.6) removes: when the
data reply departs on a guaranteed complete circuit the bank
self-acknowledges and unblocks the line immediately.
"""

from __future__ import annotations

import enum
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, Iterable, Optional, Set

from repro.coherence.base import ScheduledController
from repro.coherence.cache import CacheArray
from repro.coherence.messages import Kind, MessageFactory
from repro.noc.flit import Message
from repro.sim.stats import Stats


#: The packed fields of sharer-less lines, each distinct value once
#: (:meth:`DirLine.pack`): at most two dirty states x owners x two busy
#: states.
_PACKED: Dict[tuple, tuple] = {}


class DirLine:
    """L2 line: data state plus directory sharing info."""

    __slots__ = ("dirty", "owner", "sharers", "busy")

    def __init__(self) -> None:
        self.dirty = False
        #: L1 holding the line in E/M (exclusive ownership), if any.
        self.owner: Optional[int] = None
        #: L1s holding the line in S; None until the first one is added
        #: (most lines of a bank never have a sharer).
        self.sharers: Optional[Set[int]] = None
        #: A transaction is in flight for this line (requests must queue).
        self.busy = False

    def pack(self) -> tuple:
        """The line as immutable fields (:meth:`unpack` inverts it).  A
        small set copied through a frozenset keeps its slot layout, so
        the rebuilt set iterates its sharers in the same order.  Lines
        without sharers share one tuple per distinct value; a line with
        sharers gets its own, since equal frozensets can iterate in
        different orders."""
        sharers = self.sharers
        if sharers is None:
            fields = (self.dirty, self.owner, None, self.busy)
            return _PACKED.setdefault(fields, fields)
        return (self.dirty, self.owner, frozenset(sharers), self.busy)

    @staticmethod
    def unpack(fields: tuple) -> "DirLine":
        line = DirLine()
        line.dirty, line.owner, sharers, line.busy = fields
        if sharers is not None:
            line.sharers = set(sharers)
        return line

    def add_sharer(self, node: int) -> None:
        if self.sharers is None:
            self.sharers = {node}
        else:
            self.sharers.add(node)


class _TxnKind(enum.Enum):
    FETCH = "fetch"  # L2 miss: memory read + grant
    GRANT = "grant"  # data reply sent, waiting for L1_DATA_ACK
    INV_GRANT = "inv"  # invalidating sharers before an exclusive grant
    FWD = "fwd"  # forwarded to the owning L1, waiting for the ack
    EVICT = "evict"  # victim eviction (invalidations + L2 writeback)


class Txn:
    __slots__ = ("kind", "addr", "requestor", "is_write", "acks_needed",
                 "mem_pending", "request", "circuit_cancelled")

    def __init__(self, kind: _TxnKind, addr: int, requestor: int = -1,
                 is_write: bool = False, request: Optional[Message] = None) -> None:
        self.kind = kind
        self.addr = addr
        self.requestor = requestor
        self.is_write = is_write
        self.acks_needed = 0
        self.mem_pending = False
        #: The original GETS/GETX (keeps the circuit key for the reply).
        self.request = request
        #: The reserved circuit was undone before use (L2 miss ablation /
        #: owner forwarding) - the eventual reply reports "undone".
        self.circuit_cancelled = False


class L2BankController(ScheduledController):
    """One L2 bank + directory slice."""

    def __init__(
        self,
        node: int,
        config,
        factory: MessageFactory,
        ni,
        mc_of: Callable[[int], int],
        stats: Stats,
    ) -> None:
        super().__init__()
        self.node = node
        self.config = config
        self.factory = factory
        self.ni = ni
        self.mc_of = mc_of
        self.stats = stats
        cache = config.cache
        self.array: CacheArray[DirLine] = CacheArray(
            cache.l2_bank_sets, cache.l2_assoc, cache.line_bytes,
            block_stride=config.n_cores, make_line=DirLine,
        )
        self.txns: Dict[int, Txn] = {}
        self.queues: Dict[int, Deque[Message]] = {}

    # ------------------------------------------------------------------
    # Functional warmup (no messages, no timing).
    # ------------------------------------------------------------------
    def prewarm_line(self, addr: int, owner: Optional[int] = None,
                     sharers: Optional[Set[int]] = None) -> bool:
        """Install a line directly (functional warmup); False if set full."""
        line = self.array.peek(addr)
        if line is not None:
            if owner is not None and line.owner is None and not line.sharers:
                line.owner = owner
            return True
        line = DirLine()
        line.owner = owner
        if sharers:
            line.sharers = set(sharers)
        return self.array.install_if_free(addr, line)

    def prewarm_fill(self, addrs: Iterable[int]) -> None:
        """``prewarm_line(addr)`` for each of ``addrs``: the unowned,
        unshared bulk of a functional warmup, left as default lines the
        array builds on first access."""
        self.array.fill_absent(addrs)

    # ------------------------------------------------------------------
    def receive(self, msg: Message, cycle: int) -> None:
        handler = {
            Kind.GETS: self._on_request,
            Kind.GETX: self._on_request,
            Kind.WB_L1: self._on_writeback,
            Kind.L1_DATA_ACK: self._on_data_ack,
            Kind.L1_INV_ACK: self._on_inv_ack,
            Kind.MEMORY_DATA: self._on_memory_data,
            Kind.MEMORY_ACK: self._on_memory_ack,
        }[msg.kind]
        self.schedule(cycle + self.config.cache.l2_hit_cycles,
                      partial(handler, msg))

    # -- demand requests ---------------------------------------------------
    def _on_request(self, msg: Message, cycle: int) -> None:
        addr = msg.payload.addr
        line = self.array.peek(addr)
        if (line is not None and line.busy) or addr in self.txns:
            self.queues.setdefault(addr, deque()).append(msg)
            self.stats.bump("l2.requests_queued")
            return
        self._process_request(msg, cycle)

    def _process_request(self, msg: Message, cycle: int) -> None:
        addr = msg.payload.addr
        is_write = msg.kind == Kind.GETX
        requestor = msg.src
        line = self.array.lookup(addr)
        if line is None:
            self._start_fetch(msg, cycle)
            return
        self.stats.bump("l2.hits")
        if line.owner is not None and line.owner != requestor:
            self._forward_to_owner(line, msg, cycle)
        elif line.owner == requestor:
            # The owner silently dropped its clean E copy and re-requests
            # (its L1 defers re-requests while a writeback is in flight, so
            # no WB race is possible here): grant the line again.
            line.owner = None
            self._grant(line, msg, cycle)
        elif is_write and line.sharers and line.sharers - {requestor}:
            self._invalidate_then_grant(line, msg, cycle)
        else:
            self._grant(line, msg, cycle)

    def _start_fetch(self, msg: Message, cycle: int) -> None:
        addr = msg.payload.addr
        self.stats.bump("l2.misses")
        placeholder = DirLine()
        placeholder.busy = True
        if not self.array.install_if_free(addr, placeholder):
            victim = self.array.choose_victim(addr, lambda l: not l.busy)
            if victim is None:
                # Every way busy: retry after another directory access.
                self.schedule(cycle + self.config.cache.l2_hit_cycles,
                              partial(self._on_request, msg))
                self.stats.bump("l2.fetch_retries")
                return
            self._start_eviction(victim, cycle)
            self.array.install(addr, placeholder)
        txn = Txn(_TxnKind.FETCH, addr, msg.src, msg.kind == Kind.GETX, msg)
        txn.mem_pending = True
        self.txns[addr] = txn
        if self.config.circuit.undo_on_l2_miss and msg.circuit_key is not None:
            if self.ni.cancel_circuit(msg.circuit_key, cycle):
                txn.circuit_cancelled = True
        mc = self.mc_of(addr)
        self.ni.enqueue(self.factory.mem_read(self.node, mc, addr), cycle)

    def _start_eviction(self, addr: int, cycle: int) -> None:
        line = self.array.remove(addr)
        assert line is not None and not line.busy
        self.stats.bump("l2.evictions")
        txn = Txn(_TxnKind.EVICT, addr)
        targets = set(line.sharers or ())
        if line.owner is not None:
            targets.add(line.owner)
            line.dirty = True  # the owner's copy supersedes ours
        txn.acks_needed = len(targets)
        # Track dirtiness through the txn via is_write (reused as a flag).
        txn.is_write = line.dirty
        self.txns[addr] = txn
        for sharer in targets:
            self.ni.enqueue(self.factory.inv(self.node, sharer, addr), cycle)
        if txn.acks_needed == 0:
            self._finish_eviction(txn, cycle)

    def _finish_eviction(self, txn: Txn, cycle: int) -> None:
        if txn.is_write:  # dirty: write back to memory, await the ack
            mc = self.mc_of(txn.addr)
            self.ni.enqueue(self.factory.wb_l2(self.node, mc, txn.addr), cycle)
            txn.mem_pending = True
            self.stats.bump("l2.writebacks")
        else:
            self.txns.pop(txn.addr, None)
            self._drain(txn.addr, cycle)

    def _forward_to_owner(self, line: DirLine, msg: Message, cycle: int) -> None:
        addr = msg.payload.addr
        is_write = msg.kind == Kind.GETX
        undone = False
        if msg.circuit_key is not None:
            # The reply will come from the owner L1, not from us: the
            # circuit reserved between requestor and this bank is undone.
            undone = self.ni.cancel_circuit(msg.circuit_key, cycle)
        kind = Kind.FWD_GETX if is_write else Kind.FWD_GETS
        self.ni.enqueue(
            self.factory.forward(kind, self.node, line.owner, addr,
                                 msg.src, undone),
            cycle,
        )
        line.busy = True
        txn = Txn(_TxnKind.FWD, addr, msg.src, is_write, msg)
        self.txns[addr] = txn
        self.stats.bump("l2.forwards")

    def _invalidate_then_grant(self, line: DirLine, msg: Message, cycle: int) -> None:
        addr = msg.payload.addr
        line.busy = True
        txn = Txn(_TxnKind.INV_GRANT, addr, msg.src, True, msg)
        targets = line.sharers - {msg.src}
        txn.acks_needed = len(targets)
        self.txns[addr] = txn
        for sharer in targets:
            self.ni.enqueue(self.factory.inv(self.node, sharer, addr), cycle)
        self.stats.bump("l2.write_invalidations", len(targets))

    def _grant(self, line: DirLine, msg: Message, cycle: int) -> None:
        """Send the data reply and hold the line until it is acknowledged."""
        addr = msg.payload.addr
        is_write = msg.kind == Kind.GETX
        exclusive = is_write or not line.sharers
        line.busy = True
        txn = Txn(_TxnKind.GRANT, addr, msg.src, is_write, msg)
        self.txns[addr] = txn
        reply = self.factory.l2_reply(self.node, msg.src, addr,
                                      msg, exclusive)
        reply.payload.circuit_resolved = partial(
            self._on_reply_resolved, txn, reply
        )
        self.ni.enqueue(reply, cycle)

    def _on_reply_resolved(self, txn: Txn, reply: Message,
                           used_circuit: bool, cycle: int) -> None:
        """NI resolved whether the data reply rides a complete circuit."""
        if not used_circuit or not self.config.circuit.no_ack:
            return
        # Section 4.6: the circuit guarantees ordered, unblocked delivery,
        # so acknowledge the data now and tell the L1 not to send the ACK.
        reply.payload.ack_suppressed = True
        self.stats.bump("l2.self_acks")
        self._complete_grant(txn, cycle, suppressed=True)

    def _complete_grant(self, txn: Txn, cycle: int, suppressed: bool) -> None:
        addr = txn.addr
        line = self.array.peek(addr)
        assert line is not None
        if txn.is_write:
            line.owner = txn.requestor
            if line.sharers is not None:
                line.sharers.clear()
        else:
            if line.sharers:
                line.sharers.add(txn.requestor)
                line.owner = None
            else:
                line.owner = txn.requestor  # exclusive (E) grant
        line.busy = False
        self.txns.pop(addr, None)
        self._drain(addr, cycle)

    # -- acknowledgements ----------------------------------------------------
    def _on_data_ack(self, msg: Message, cycle: int) -> None:
        addr = msg.payload.addr
        txn = self.txns.get(addr)
        if txn is None:
            return  # already self-acknowledged via the circuit (4.6)
        if txn.kind is _TxnKind.FWD:
            line = self.array.peek(addr)
            assert line is not None
            old_owner = line.owner
            if txn.is_write:
                line.owner = txn.requestor
                if line.sharers is not None:
                    line.sharers.clear()
            else:
                if old_owner is not None:
                    line.add_sharer(old_owner)
                line.add_sharer(txn.requestor)
                line.owner = None
                line.dirty = True
            line.busy = False
            self.txns.pop(addr, None)
            self._drain(addr, cycle)
        elif txn.kind in (_TxnKind.GRANT,):
            self._complete_grant(txn, cycle, suppressed=False)

    def _on_inv_ack(self, msg: Message, cycle: int) -> None:
        addr = msg.payload.addr
        txn = self.txns.get(addr)
        if txn is None:
            return
        txn.acks_needed -= 1
        if txn.acks_needed > 0:
            return
        if txn.kind is _TxnKind.EVICT:
            self._finish_eviction(txn, cycle)
        elif txn.kind is _TxnKind.INV_GRANT:
            line = self.array.peek(addr)
            assert line is not None
            line.sharers = {s for s in line.sharers or ()
                            if s == txn.requestor}
            txn.kind = _TxnKind.GRANT
            reply = self.factory.l2_reply(self.node, txn.requestor, addr,
                                          txn.request, True)
            if txn.circuit_cancelled:
                reply.outcome_hint = "undone"
            reply.payload.circuit_resolved = partial(
                self._on_reply_resolved, txn, reply
            )
            self.ni.enqueue(reply, cycle)

    # -- writebacks ------------------------------------------------------------
    def _on_writeback(self, msg: Message, cycle: int) -> None:
        addr = msg.payload.addr
        line = self.array.peek(addr)
        if line is not None and line.owner == msg.src:
            line.owner = None
            line.dirty = line.dirty or msg.payload.exclusive
        elif line is not None and line.sharers:
            line.sharers.discard(msg.src)
        ack = self.factory.l2_wb_ack(self.node, msg.src, addr, msg)
        self.ni.enqueue(ack, cycle)
        if line is not None and not line.busy:
            self._drain(addr, cycle)

    # -- memory ------------------------------------------------------------------
    def _on_memory_data(self, msg: Message, cycle: int) -> None:
        addr = msg.payload.addr
        txn = self.txns.get(addr)
        assert txn is not None and txn.kind is _TxnKind.FETCH
        txn.mem_pending = False
        line = self.array.peek(addr)
        assert line is not None
        line.dirty = False
        # Grant straight out of the fetch transaction.
        txn.kind = _TxnKind.GRANT
        reply = self.factory.l2_reply(self.node, txn.requestor, addr,
                                      txn.request, True)
        if txn.circuit_cancelled:
            reply.outcome_hint = "undone"
        reply.payload.circuit_resolved = partial(
            self._on_reply_resolved, txn, reply
        )
        self.ni.enqueue(reply, cycle)

    def _on_memory_ack(self, msg: Message, cycle: int) -> None:
        addr = msg.payload.addr
        txn = self.txns.get(addr)
        if txn is not None and txn.kind is _TxnKind.EVICT:
            self.txns.pop(addr, None)
            self._drain(addr, cycle)

    # -- queued requests ------------------------------------------------------
    def _drain(self, addr: int, cycle: int) -> None:
        queue = self.queues.get(addr)
        while queue:
            line = self.array.peek(addr)
            if addr in self.txns or (line is not None and line.busy):
                break
            self._process_request(queue.popleft(), cycle)
        if queue is not None and not queue:
            self.queues.pop(addr, None)

    # ------------------------------------------------------------------
    def busy(self) -> bool:
        return bool(self.txns) or bool(self.queues) or bool(self._events)
