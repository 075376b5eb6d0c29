"""Coherence message construction (the paper's Table 3 message set).

Requests travel on VN0 (XY routing); replies on VN1 (YX routing).  Request
messages that will be answered by a circuit-eligible reply carry the
circuit metadata the routers need to reserve the reply's path: the circuit
identity (requestor node + cache line address), the expected reply length,
and the destination turnaround estimate used by timed reservations.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.circuits.table import circuit_key
from repro.noc.flit import Message


class Kind:
    """Message kind constants (names follow the paper's Tables 1 and 3)."""

    # Requests (VN0).
    GETS = "GETS"
    GETX = "GETX"
    FWD_GETS = "FWD_GETS"
    FWD_GETX = "FWD_GETX"
    INV = "INV"
    WB_L1 = "WB_L1"
    MEM_READ = "MEM_READ"
    WB_L2 = "WB_L2"
    # Replies (VN1).
    L2_REPLY = "L2_REPLY"
    L2_WB_ACK = "L2_WB_ACK"
    MEMORY_DATA = "MEMORY_DATA"
    MEMORY_ACK = "MEMORY_ACK"
    L1_DATA_ACK = "L1_DATA_ACK"
    L1_INV_ACK = "L1_INV_ACK"
    L1_TO_L1 = "L1_TO_L1"


REQUEST_KINDS = frozenset({
    Kind.GETS, Kind.GETX, Kind.FWD_GETS, Kind.FWD_GETX,
    Kind.INV, Kind.WB_L1, Kind.MEM_READ, Kind.WB_L2,
})

REPLY_KINDS = frozenset({
    Kind.L2_REPLY, Kind.L2_WB_ACK, Kind.MEMORY_DATA, Kind.MEMORY_ACK,
    Kind.L1_DATA_ACK, Kind.L1_INV_ACK, Kind.L1_TO_L1,
})

#: Replies that a preceding request can reserve a circuit for (sec. 4.1).
CIRCUIT_ELIGIBLE_REPLIES = frozenset({
    Kind.L2_REPLY, Kind.L2_WB_ACK, Kind.MEMORY_DATA, Kind.MEMORY_ACK,
})


class Payload:
    """Protocol payload attached to every coherence message."""

    __slots__ = ("addr", "requestor", "exclusive", "ack_suppressed",
                 "circuit_resolved", "undone_circuit")

    def __init__(self, addr: int, requestor: Optional[int] = None) -> None:
        #: Cache line address (block-aligned).
        self.addr = addr
        #: Original requesting node (for forwarded requests / L1-to-L1).
        self.requestor = requestor
        #: Data replies: line granted exclusively (E for reads, M for writes).
        self.exclusive = False
        #: Set on data replies riding complete circuits: skip L1_DATA_ACK.
        self.ack_suppressed = False
        #: Hook invoked by the NI when circuit use is resolved (sec. 4.6).
        self.circuit_resolved: Optional[Any] = None
        #: The reply replaces one whose circuit was undone (Fig. 6 account).
        self.undone_circuit = False


def _line_flits(flit_bytes: int, line_bytes: int) -> int:
    return 1 + (line_bytes + flit_bytes - 1) // flit_bytes


class MessageFactory:
    """Builds coherence messages for one system configuration."""

    def __init__(self, config) -> None:
        self.config = config
        self.data_flits = _line_flits(config.noc.flit_bytes, config.cache.line_bytes)

    # -- requests that reserve circuits for their replies -----------------
    def _request(self, kind: str, src: int, dest: int, addr: int,
                 n_flits: int, reply_flits: int, turnaround: int) -> Message:
        msg = Message(src, dest, 0, n_flits, kind, Payload(addr, requestor=src))
        msg.builds_circuit = True
        msg.circuit_key = circuit_key(src, addr, msg.uid)
        msg.reply_flits = reply_flits
        msg.expected_turnaround = turnaround
        return msg

    def gets(self, src: int, dest: int, addr: int) -> Message:
        """Read request; reserves a circuit for the 5-flit data reply."""
        return self._request(Kind.GETS, src, dest, addr, 1,
                             self.data_flits, self.config.cache.l2_hit_cycles)

    def getx(self, src: int, dest: int, addr: int) -> Message:
        """Write/ownership request; reserves a circuit for the data reply."""
        return self._request(Kind.GETX, src, dest, addr, 1,
                             self.data_flits, self.config.cache.l2_hit_cycles)

    def wb_l1(self, src: int, dest: int, addr: int) -> Message:
        """L1 replacement data (5 flits); reserves a circuit for the ack."""
        return self._request(Kind.WB_L1, src, dest, addr, self.data_flits,
                             1, self.config.cache.l2_hit_cycles)

    def mem_read(self, src: int, dest: int, addr: int) -> Message:
        """L2-miss fetch; reserves a circuit for the MEMORY data reply."""
        return self._request(Kind.MEM_READ, src, dest, addr, 1,
                             self.data_flits,
                             self.config.cache.memory_latency_cycles)

    def wb_l2(self, src: int, dest: int, addr: int) -> Message:
        """L2 replacement data; reserves a circuit for the MEMORY ack."""
        return self._request(Kind.WB_L2, src, dest, addr, self.data_flits,
                             1, self.config.cache.memory_latency_cycles)

    # -- requests without circuit-eligible replies -------------------------
    def forward(self, kind: str, src: int, owner: int, addr: int,
                requestor: int, undone_circuit: bool) -> Message:
        """FWD_GETS/FWD_GETX toward the exclusively-owning L1."""
        payload = Payload(addr, requestor=requestor)
        payload.undone_circuit = undone_circuit
        return Message(src, owner, 0, 1, kind, payload)

    def inv(self, src: int, sharer: int, addr: int) -> Message:
        """Invalidation toward one sharer (write or L2 replacement)."""
        return Message(src, sharer, 0, 1, Kind.INV, Payload(addr))

    # -- replies -----------------------------------------------------------
    def _reply(self, kind: str, src: int, dest: int, addr: int, n_flits: int,
               request: Optional[Message]) -> Message:
        msg = Message(src, dest, 1, n_flits, kind, Payload(addr))
        if kind in CIRCUIT_ELIGIBLE_REPLIES:
            msg.circuit_eligible = True
            if request is not None:
                msg.circuit_key = request.circuit_key
        return msg

    def l2_reply(self, src: int, dest: int, addr: int,
                 request: Message, exclusive: bool) -> Message:
        """Data reply from the home L2 bank (circuit-eligible)."""
        msg = self._reply(Kind.L2_REPLY, src, dest, addr, self.data_flits, request)
        msg.payload.exclusive = exclusive
        return msg

    def l2_wb_ack(self, src: int, dest: int, addr: int, request: Message) -> Message:
        """Writeback acknowledgement (circuit-eligible)."""
        return self._reply(Kind.L2_WB_ACK, src, dest, addr, 1, request)

    def memory_data(self, src: int, dest: int, addr: int, request: Message) -> Message:
        """Line from a memory controller (circuit-eligible)."""
        return self._reply(Kind.MEMORY_DATA, src, dest, addr, self.data_flits, request)

    def memory_ack(self, src: int, dest: int, addr: int, request: Message) -> Message:
        """Memory write acknowledgement (circuit-eligible)."""
        return self._reply(Kind.MEMORY_ACK, src, dest, addr, 1, request)

    def l1_data_ack(self, src: int, dest: int, addr: int) -> Message:
        """Data-reception ack from L1 to the home bank (sec. 4.6 target)."""
        return self._reply(Kind.L1_DATA_ACK, src, dest, addr, 1, None)

    def l1_inv_ack(self, src: int, dest: int, addr: int) -> Message:
        """Invalidation acknowledgement from a (possibly stale) sharer."""
        return self._reply(Kind.L1_INV_ACK, src, dest, addr, 1, None)

    def l1_to_l1(self, src: int, dest: int, addr: int, exclusive: bool,
                 undone_circuit: bool) -> Message:
        """Direct cache-to-cache data transfer from the owning L1."""
        msg = self._reply(Kind.L1_TO_L1, src, dest, addr, self.data_flits, None)
        msg.payload.exclusive = exclusive
        if undone_circuit:
            msg.outcome_hint = "undone"
        return msg
