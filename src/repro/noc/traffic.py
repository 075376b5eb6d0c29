"""Synthetic request-reply traffic driver for NoC-only studies.

Drives a :class:`~repro.noc.network.Network` directly - no cores, no
coherence - with a memoryless request stream whose replies mimic the
protocol's dominant pattern (1-flit request -> 5-flit reply after a fixed
turnaround).  Used for controlled load sweeps: the paper argues circuits
stop being buildable "under very adverse conditions, with heavy traffic
loads" and that timed circuits raise that congestion threshold; this
driver lets an experiment dial the injection rate directly.

The driver and the network share an activity-driven
:class:`~repro.sim.kernel.Simulator` (``self.sim``).  Each node's
injection process is the same Bernoulli(p)-per-cycle stream the original
cycle-driven loop produced, but sampled by its geometric inter-arrival
gaps (inverse-transform on one RNG draw per injection) instead of one
draw per node per cycle.  That makes the generator itself a sleeping
component between injections, so lightly loaded sweeps - the regime the
paper's figures are drawn from - advance at event speed: whole quiet
gaps are fast-forwarded by the kernel instead of being simulated cycle
by cycle.  The kernel starts at cycle 1 so cycle labels match the old
manual loop that stepped the network once per cycle from 1.
"""

from __future__ import annotations

import heapq
import math
from random import Random
from typing import List, Optional, Tuple

from repro.circuits.table import circuit_key
from repro.noc.flit import Message
from repro.noc.network import Network
from repro.sim.config import SystemConfig
from repro.sim.kernel import DeadlockError, Simulator


class RequestReplyTraffic:
    """Uniform-random request-reply load generator on a raw network."""

    def __init__(
        self,
        config: SystemConfig,
        requests_per_node_per_kcycle: float,
        turnaround: int = 7,
        reply_flits: int = 5,
        seed: int = 1,
    ) -> None:
        self.config = config
        self.net = Network(config)
        self.rate = requests_per_node_per_kcycle / 1000.0
        self.turnaround = turnaround
        self.reply_flits = reply_flits
        self.rng = Random(seed)
        self.requests_sent = 0
        self.replies_received = 0
        self.reply_latencies: List[int] = []
        self._timers: List[Tuple[int, Message]] = []
        self._next_addr = 0x40
        self._injecting = False
        #: ``log(1 - p)`` for the geometric gap draw (None when p is 0/1).
        self._log_q = (
            math.log1p(-self.rate) if 0.0 < self.rate < 1.0 else None
        )
        #: Per-node next-injection schedule: (cycle, node) min-heap.
        self._inj_heap: List[Tuple[int, int]] = []
        if self.rate > 0.0:
            for node in range(self.net.topo.n_nodes):
                heapq.heappush(self._inj_heap, (self._draw_gap(), node))
        #: Installed by Simulator.add; pokes the kernel when a reply timer
        #: is armed while the generator sleeps.
        self.kernel_wake = None
        self.sim = Simulator()
        # The generator ticks before any router/NI, exactly where the old
        # manual loop injected; cycle labels start at 1 as that loop did.
        self.sim.add(self)
        self.net.register(self.sim)
        self.sim.cycle = 1
        for node in range(self.net.topo.n_nodes):
            self.net.set_deliver(node, self._deliver)

    @property
    def cycle(self) -> int:
        """Cycles executed so far (matches the old manual-loop counter)."""
        return self.sim.cycle - 1

    # ------------------------------------------------------------------
    def _draw_gap(self) -> int:
        """Cycles until a node's next injection, geometric with mean 1/p."""
        if self._log_q is None:
            return 1  # p >= 1: inject every cycle
        u = self.rng.random()
        while u <= 0.0:  # pragma: no cover - random() returning exactly 0
            u = self.rng.random()
        return int(math.log(u) / self._log_q) + 1

    def _deliver(self, msg: Message, cycle: int) -> None:
        if msg.vn == 0:
            reply = Message(msg.dest, msg.src, 1, self.reply_flits, "L2_REPLY")
            reply.circuit_eligible = True
            reply.circuit_key = msg.circuit_key
            due = cycle + self.turnaround
            self._timers.append((due, reply))
            if self.kernel_wake is not None:
                self.kernel_wake(due)
        else:
            self.replies_received += 1
            self.reply_latencies.append(msg.network_latency)

    def _inject_from(self, src: int, cycle: int) -> None:
        n = self.net.topo.n_nodes
        dest = self.rng.randrange(n - 1)
        if dest >= src:
            dest += 1
        msg = Message(src, dest, 0, 1, "REQUEST")
        msg.builds_circuit = True
        self._next_addr += 0x40
        msg.circuit_key = circuit_key(src, self._next_addr, msg.uid)
        msg.reply_flits = self.reply_flits
        msg.expected_turnaround = self.turnaround
        self.net.inject(msg, cycle)
        self.requests_sent += 1

    # ------------------------------------------------------------------
    # Clocked component protocol (the generator itself).
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        timers = self._timers
        if timers:
            due = [t for t in timers if t[0] <= cycle]
            for item in due:
                timers.remove(item)
                self.net.inject(item[1], cycle)
        if self._injecting:
            heap = self._inj_heap
            while heap and heap[0][0] <= cycle:
                _, src = heapq.heappop(heap)
                self._inject_from(src, cycle)
                heapq.heappush(heap, (cycle + self._draw_gap(), src))

    def next_wake(self, cycle: int) -> Optional[int]:
        due: Optional[int] = None
        if self._injecting and self._inj_heap:
            due = self._inj_heap[0][0]
        if self._timers:
            t = min(item[0] for item in self._timers)
            if due is None or t < due:
                due = t
        return due

    # ------------------------------------------------------------------
    def run(self, cycles: int) -> None:
        """Inject at the configured rate for ``cycles`` cycles."""
        self._injecting = True
        if self.kernel_wake is not None:
            self.kernel_wake()  # re-evaluate the schedule from this cycle
        try:
            self.sim.run(cycles)
        finally:
            self._injecting = False
            self.net.stats.flush()

    def drain(self, max_cycles: int = 100_000) -> None:
        """Stop injecting and let the network empty."""
        net = self.net

        def done() -> bool:
            return not self._timers and net.in_flight() == 0

        try:
            # check_interval=1 keeps the stop cycle exact, as the manual
            # loop's per-cycle quiescence check did.
            self.sim.run_until(done, max_cycles, check_interval=1)
        except DeadlockError as exc:
            raise RuntimeError("traffic driver failed to drain") from exc
        finally:
            net.stats.flush()

    # ------------------------------------------------------------------
    def circuit_success_rate(self) -> Optional[float]:
        """Fraction of eligible replies that rode their circuit."""
        s = self.net.stats
        total = s.counter("circuit.replies_total")
        if not total:
            return None
        return s.counter("circuit.outcome.on_circuit") / total

    def mean_reply_latency(self) -> float:
        if not self.reply_latencies:
            return 0.0
        return sum(self.reply_latencies) / len(self.reply_latencies)

    def offered_load_flits_per_kcycle_node(self) -> float:
        """Measured injected flits per 1000 cycles per node."""
        s = self.net.stats
        n = self.net.topo.n_nodes
        if not self.cycle:
            return 0.0
        return 1000.0 * s.counter("noc.flits_injected") / self.cycle / n
