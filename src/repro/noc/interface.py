"""Network interface (NI).

Each tile has one NI connecting its core/L1, L2 bank, and (optionally)
memory controller to the router's LOCAL port.  The NI:

* segments messages into flits and injects at most one flit per cycle,
* tracks credits for the router's local input VCs,
* reassembles ejected flits and delivers messages to the protocol layer,
* owns the circuit origination table (paper: "information of the circuit
  is also stored in the network interface where the circuit starts"),
* plans replies with the circuit policy: ride the circuit (possibly waiting
  for a timed slot), scrounge another circuit, or fall back to packets,
* relays scrounger messages onward from their intermediate destination.

An NI is not a kernel component: the network's
:class:`~repro.noc.router.RouterCore` runs its body (:meth:`tick`) as
the core's last stage, in node order, whenever it has ejected flits or a
wake due on the core's calendar, or queued work.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.noc.flit import CircuitKey, Credit, Flit, Message
from repro.sim.stats import Stats


class _ActiveSend:
    """An in-progress message injection (one per VN, plus circuit sends)."""

    __slots__ = ("msg", "flits", "index", "vn", "vc", "circuit", "plan")

    def __init__(self, msg: Message, vn: int, vc: int, circuit: bool) -> None:
        self.msg = msg
        self.flits = msg.flits()
        self.index = 0
        self.vn = vn
        self.vc = vc
        self.circuit = circuit
        self.plan = msg.plan

    @property
    def done(self) -> bool:
        return self.index >= len(self.flits)


class NetworkInterface:
    """Injection/ejection endpoint of one tile.

    Written for the hot path: per-flit counters are batched into the
    router core's plain ints (its registered flusher drains them into the
    shared :class:`Stats`), and per-call lookups are hoisted to
    construction time.
    """

    def __init__(self, node: int, mesh, config, policy, stats: Stats) -> None:
        self.node = node
        self.mesh = mesh
        self.config = config
        self.policy = policy
        self.stats = stats
        #: injectable_vcs() is static per policy; cache per VN.
        self._inject_vcs = tuple(
            policy.injectable_vcs(vn)
            for vn in range(len(config.noc.vcs_per_vn))
        )
        #: ``msg.count.<kind>`` key strings, interned on first use.
        self._kind_keys: Dict[str, str] = {}
        # Wired by the Network: flits and undo notices toward the router
        # go into the router core's arrival calendar at ``router_key``;
        # the core hands this NI its ejected flits and applies its credits.
        self.core = None
        self.router_key: Optional[int] = None
        # Credits mirroring the router's LOCAL input VC buffers.
        depth = config.noc.buffer_depth_flits
        bufferless = policy.bufferless_vcs()
        self.credits: List[List[int]] = [
            [0 if (vn, vc) in bufferless else depth for vc in range(count)]
            for vn, count in enumerate(config.noc.vcs_per_vn)
        ]
        # Queues.
        self.req_queue: Deque[Message] = deque()
        self.reply_pending: Deque[Message] = deque()
        self.reply_queue: Deque[Message] = deque()
        self.held: List[Tuple[int, int, Message]] = []
        self._seq = 0
        self.active_circuit: Optional[_ActiveSend] = None
        self.active_packet: Dict[int, Optional[_ActiveSend]] = {0: None, 1: None}
        self._vn_preference = 0
        # Circuit origination state (policy-managed).
        self.origin_table: Dict[CircuitKey, object] = {}
        self._undo_out: List[Tuple[int, CircuitKey]] = []
        # Ejection.
        self._rx_counts: Dict[int, int] = {}
        self.deliver: Optional[Callable[[Message, int], None]] = None
        #: Optional telemetry span recorder (``repro.telemetry``); hooks
        #: are guarded by ``observer is not None`` so detached telemetry
        #: costs one attribute test per event site.
        self.observer = None

    # ------------------------------------------------------------------
    # Protocol-facing API.
    # ------------------------------------------------------------------
    def enqueue(self, msg: Message, cycle: int) -> None:
        """Hand a message to the NI (injectable from the next cycle on)."""
        msg.enqueued_cycle = cycle
        core = self.core
        core._c_enqueued += 1
        if self.observer is not None:
            self.observer.ni_enqueue(self, msg, cycle)
        if msg.vn == 0:
            self.req_queue.append(msg)
        else:
            self.reply_pending.append(msg)
        core.wake_interface(self.node, cycle + 1)

    def cancel_circuit(self, key: CircuitKey, cycle: int) -> bool:
        """Protocol decided a reserved circuit will never be used (4.4).

        Returns True when a built circuit actually existed and was undone
        (the protocol marks the replacement reply as "undone" for Fig. 6).
        """
        return self.policy.cancel_origin(self, key, cycle)

    def send_undo(self, key: CircuitKey, cycle: int) -> None:
        """Queue an undo notice toward the circuit's destination.

        Sent one cycle later so an undo can never overtake (or tie with)
        circuit flits already in flight on the same path.
        """
        self._undo_out.append((cycle + 1, key))
        self.core.wake_interface(self.node, cycle + 1)

    def rx_partial_flits(self) -> int:
        """Flits of partially reassembled messages (exact-census probe)."""
        return sum(self._rx_counts.values())

    def pending_work(self) -> int:
        """Messages queued or mid-injection (used for drain detection)."""
        total = len(self.req_queue) + len(self.reply_pending)
        total += len(self.reply_queue) + len(self.held)
        total += len(self._rx_counts) + len(self._undo_out)
        if self.active_circuit is not None:
            total += 1
        total += sum(1 for act in self.active_packet.values() if act is not None)
        return total

    # ------------------------------------------------------------------
    # Tick.
    # ------------------------------------------------------------------
    def tick(self, cycle: int, flits: Sequence[Flit] = ()) -> bool:
        """One NI cycle: reassemble ``flits`` (this cycle's ejections, in
        arrival order), send due undo notices, plan replies, inject.

        Returns whether the NI has a queued message, an active send or a
        released circuit reply, i.e. must run again next cycle.
        """
        if flits:
            rx_counts = self._rx_counts
            for flit in flits:
                msg = flit.msg
                got = rx_counts.get(msg.uid, 0) + 1
                if got == msg.n_flits:
                    rx_counts.pop(msg.uid, None)
                    self._finish(msg, cycle)
                else:
                    rx_counts[msg.uid] = got
        if self._undo_out:
            self._flush_undo(cycle)
        if self.reply_pending:
            self._plan_replies(cycle)
        active_packet = self.active_packet
        if (
            self.active_circuit is not None
            or self.held
            or self.req_queue
            or self.reply_queue
            or active_packet[0] is not None
            or active_packet[1] is not None
        ):
            self._inject_one_flit(cycle)
        return bool(
            self.req_queue
            or self.reply_pending
            or self.reply_queue
            or self.active_circuit is not None
            or active_packet[0] is not None
            or active_packet[1] is not None
            or (self.held and self.held[0][0] <= cycle)
        )

    def _flush_undo(self, cycle: int) -> None:
        if not self._undo_out:
            return
        keep: List[Tuple[int, CircuitKey]] = []
        for due, key in self._undo_out:
            if due <= cycle:
                self.core.send_credit(self.router_key, Credit(undo_key=key),
                                      cycle)
                self.stats.bump("circuit.undo_hops")
            else:
                keep.append((due, key))
        self._undo_out = keep

    def _plan_replies(self, cycle: int) -> None:
        while self.reply_pending and self.reply_pending[0].enqueued_cycle < cycle:
            msg = self.reply_pending.popleft()
            plan = self.policy.plan_reply(self, msg, cycle)
            msg.plan = plan
            if self.observer is not None:
                self.observer.ni_plan(self, msg, plan, cycle)
            if plan.kind == "circuit":
                release = max(plan.release, cycle)
                heapq.heappush(self.held, (release, self._seq, msg))
                self._seq += 1
                if release > cycle:
                    self.core.wake_interface(self.node, release)
            else:
                self.reply_queue.append(msg)

    # -- injection ---------------------------------------------------------
    def _inject_one_flit(self, cycle: int) -> None:
        if self.active_circuit is not None:
            self._advance_circuit(cycle)
            return
        if self._start_circuit(cycle):
            return
        # Inlined packet advance for both VNs (per-cycle injection hot path).
        first = self._vn_preference
        active_packet = self.active_packet
        credits = self.credits
        for vn in (first, 1 - first):
            act = active_packet[vn]
            if act is None:
                act = self._start_packet(vn, cycle)
                if act is None:
                    continue
            row = credits[act.vn]
            avc = act.vc
            if row[avc] <= 0:
                continue
            flit = act.flits[act.index]
            flit.dst_vc = avc
            act.index += 1
            row[avc] -= 1
            core = self.core
            core.send_flit(self.router_key, flit, cycle)
            core._c_injected += 1
            if act.done:
                active_packet[vn] = None
            self._vn_preference = 1 - vn
            return

    def _start_circuit(self, cycle: int) -> bool:
        while self.held and self.held[0][0] <= cycle:
            _release, _seq, msg = heapq.heappop(self.held)
            plan = msg.plan
            if not self.policy.validate_send(self, msg, cycle):
                # Timed window can no longer be met: undo, go packet-switched.
                self.stats.bump("circuit.window_missed_late")
                plan.kind = "packet"
                plan.outcome = "undone"
                msg.uses_circuit = False
                self.reply_queue.append(msg)
                continue
            self.policy.record_outcome(self, msg, plan, cycle)
            msg.injected_cycle = cycle
            msg.queue_acc += cycle - msg.enqueued_cycle
            if self.observer is not None:
                self.observer.ni_inject(self, msg, cycle, circuit=True)
            act = _ActiveSend(msg, 1, plan.dst_vc, circuit=True)
            for flit in act.flits:
                flit.on_circuit = True
            self.active_circuit = act
            self._advance_circuit(cycle)
            return True
        return False

    def _advance_circuit(self, cycle: int) -> None:
        act = self.active_circuit
        assert act is not None
        if self.policy.circuit_credits:
            if self.credits[1][act.vc] <= 0:
                return
            self.credits[1][act.vc] -= 1
        flit = act.flits[act.index]
        flit.dst_vc = act.vc
        act.index += 1
        core = self.core
        core.send_flit(self.router_key, flit, cycle)
        core._c_injected += 1
        if act.done:
            self.active_circuit = None
            if act.plan is not None and act.plan.is_scrounger:
                self.policy.on_scrounger_sent(self, act.plan, cycle)

    def _start_packet(self, vn: int, cycle: int) -> Optional[_ActiveSend]:
        queue = self.req_queue if vn == 0 else self.reply_queue
        if not queue or queue[0].enqueued_cycle >= cycle:
            return None
        vc = self._pick_vc(vn)
        if vc is None:
            return None
        msg = queue.popleft()
        msg.injected_cycle = cycle
        msg.queue_acc += cycle - msg.enqueued_cycle
        if vn == 0 and msg.builds_circuit:
            self.policy.on_request_injected(self, msg, cycle)
        if vn == 1:
            plan = msg.plan
            if plan is not None:
                self.policy.record_outcome(self, msg, plan, cycle)
        if self.observer is not None:
            self.observer.ni_inject(self, msg, cycle, circuit=False)
        act = _ActiveSend(msg, vn, vc, circuit=False)
        self.active_packet[vn] = act
        return act

    def _pick_vc(self, vn: int) -> Optional[int]:
        credits = self.credits[vn]
        for vc in self._inject_vcs[vn]:
            if credits[vc] > 0:
                return vc
        return None

    # -- ejection ------------------------------------------------------------
    def _finish(self, msg: Message, cycle: int) -> None:
        msg.net_acc += cycle - msg.injected_cycle
        if msg.final_dest is not None and msg.final_dest != self.node:
            # Scrounger intermediate hop: re-inject toward the real target.
            self.stats.bump("circuit.scrounger_relays")
            # These flits left the network without being delivered; the
            # flit-conservation invariant needs them accounted separately.
            self.stats.bump("noc.flits_relayed", msg.n_flits)
            msg.src = self.node
            msg.dest = msg.final_dest
            msg.final_dest = None
            msg.ride_key = None
            msg.uses_circuit = False
            msg.plan = None
            msg.enqueued_cycle = cycle
            if self.observer is not None:
                self.observer.ni_relay(self, msg, cycle)
            self.reply_pending.append(msg)
            return
        cls = self._record_latency(msg)
        if self.observer is not None:
            self.observer.ni_eject(self, msg, cycle, cls)
        if msg.builds_circuit:
            self.policy.on_request_delivered(self, msg, cycle)
        if self.deliver is not None:
            self.deliver(msg, cycle)

    #: Static latency-stat keys, precomputed so the per-message path
    #: builds no f-strings (keys are identical to the formatted ones).
    _LAT_KEYS = {
        "req": ("lat.net.req", "lat.queue.req"),
        "crep": ("lat.net.crep", "lat.queue.crep"),
        "norep": ("lat.net.norep", "lat.queue.norep"),
    }

    def _record_latency(self, msg: Message) -> str:
        if msg.vn == 0:
            cls = "req"
        elif msg.circuit_eligible:
            cls = "crep"
        else:
            cls = "norep"
        net_key, queue_key = self._LAT_KEYS[cls]
        stats = self.stats
        stats.record(net_key, msg.net_acc)
        stats.observe(queue_key, msg.queue_acc)
        kind = msg.kind
        kind_keys = self._kind_keys
        key = kind_keys.get(kind)
        if key is None:
            key = kind_keys[kind] = "msg.count." + kind
        stats.counters[key] += 1
        core = self.core
        core._c_delivered_msgs += 1
        core._c_delivered_flits += msg.n_flits
        return cls
