"""Memory controller tiles (paper: 4 on the chip edges, 160-cycle latency).

A controller answers ``MEM_READ`` with a ``MEMORY_DATA`` line and ``WB_L2``
with a ``MEMORY_ACK`` after the fixed DRAM latency.  Both replies are
circuit-eligible: the L2 bank's request reserves their return path.
"""

from __future__ import annotations

from functools import partial

from repro.coherence.base import ScheduledController
from repro.coherence.messages import Kind, MessageFactory
from repro.noc.flit import Message
from repro.sim.stats import Stats


class MemoryController(ScheduledController):
    """One edge-tile memory controller."""

    def __init__(self, node: int, config, factory: MessageFactory, ni,
                 stats: Stats) -> None:
        super().__init__()
        self.node = node
        self.config = config
        self.factory = factory
        self.ni = ni
        self.stats = stats

    def receive(self, msg: Message, cycle: int) -> None:
        due = cycle + self.config.cache.memory_latency_cycles
        if msg.kind == Kind.MEM_READ:
            self.schedule(due, partial(self._read_done, msg))
        elif msg.kind == Kind.WB_L2:
            self.schedule(due, partial(self._write_done, msg))
        else:  # pragma: no cover - dispatch invariant
            raise ValueError(f"memory controller got {msg.kind}")

    def _read_done(self, msg: Message, cycle: int) -> None:
        self.stats.bump("mem.reads")
        reply = self.factory.memory_data(self.node, msg.src, msg.payload.addr, msg)
        self.ni.enqueue(reply, cycle)

    def _write_done(self, msg: Message, cycle: int) -> None:
        self.stats.bump("mem.writes")
        reply = self.factory.memory_ack(self.node, msg.src, msg.payload.addr, msg)
        self.ni.enqueue(reply, cycle)

    def busy(self) -> bool:
        return bool(self._events)
