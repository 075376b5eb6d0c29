"""Per-variant Reactive Circuits policies.

A policy object is shared by every router and network interface of a
system.  It owns all behaviour that differs between the paper's variants:

* how requests reserve circuits while traversing the network (sec. 4.1),
* the conflict rules for fragmented / complete / timed circuits (4.2, 4.7),
* how replies check and ride circuits at 2 cycles/hop (4.3),
* undo propagation through credits (4.4),
* circuit reuse by scrounger messages (4.5),
* L1_DATA_ACK elimination notification hooks (4.6), and
* the ideal upper bound (4.8).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING, Set, Tuple

from repro.circuits.table import CircuitEntry, CircuitWalk, HopRecord, purge_expired
from repro.noc.flit import CircuitKey, Flit, Message
from repro.noc.topology import Topology
from repro.noc.vc import VcStage
from repro.sim.config import CircuitMode, SystemConfig
from repro.sim.kernel import SimulationError
from repro.sim.stats import Stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.interface import NetworkInterface
    from repro.noc.router import InputUnit, Router

#: ``CircuitPolicy.arrival_filter`` values: the arriving flits the router
#: core hands to ``handle_arrival`` - the hook's precondition, tested at
#: the call site.  ON_CIRCUIT: flits riding a circuit.  REPLY_KEYED:
#: reply-VN flits whose circuit key has an entry at the arrival port.
ON_CIRCUIT = 1
REPLY_KEYED = 2


class ReplyPlan:
    """Decision taken at the origin NI when a reply is about to leave."""

    __slots__ = ("kind", "release", "outcome", "dst_vc", "is_scrounger",
                 "ride_entry")

    def __init__(
        self,
        kind: str,
        outcome: str,
        release: int = 0,
        dst_vc: int = 0,
        is_scrounger: bool = False,
        ride_entry: Optional["OriginEntry"] = None,
    ) -> None:
        assert kind in ("circuit", "packet")
        self.kind = kind
        self.outcome = outcome
        #: Earliest cycle the reply may start injecting (timed circuits wait).
        self.release = release
        #: Injection VC for circuit flits (fragmented reserved VC index).
        self.dst_vc = dst_vc
        self.is_scrounger = is_scrounger
        #: The origin entry a scrounger is riding (pinned until sent).
        self.ride_entry = ride_entry


class OriginEntry:
    """Circuit bookkeeping at the NI where the circuit starts (Fig. 3)."""

    __slots__ = ("key", "walk", "confirmed", "circuit_dest", "created_cycle",
                 "pinned", "cancel_pending")

    def __init__(self, key: CircuitKey, walk: CircuitWalk, created_cycle: int) -> None:
        self.key = key
        self.walk = walk
        self.confirmed = walk.fully_reserved
        self.circuit_dest = key[0]
        self.created_cycle = created_cycle
        #: Number of scroungers committed to this circuit but not fully sent.
        self.pinned = 0
        #: An undo was requested while scroungers were still riding.
        self.cancel_pending = False


def _notify_protocol(msg: Message, used_circuit: bool, cycle: int) -> None:
    """Tell the coherence layer whether this reply rides a complete circuit
    (drives L1_DATA_ACK elimination and directory unblocking, sec. 4.6)."""
    hook = getattr(msg.payload, "circuit_resolved", None)
    if hook is not None:
        hook(used_circuit, cycle)


class CircuitPolicy:
    """Baseline (packet-switched only) policy; base class for the others."""

    name = "baseline"

    #: Per-flit router hooks, ``None`` for a variant without one (the
    #: router core then makes no call): ``handle_arrival(router, port,
    #: port_key, flit, cycle)`` returns True when it consumed an arriving
    #: flit that passed ``arrival_filter``; ``on_tail_departure(port_key,
    #: flit)`` sees a tail leave through the packet pipeline.
    handle_arrival = None
    on_tail_departure = None
    arrival_filter = 0
    #: Circuit flits take buffer credits (fragmented circuit VCs keep
    #: their buffers; complete and ideal circuit flits bypass them).
    circuit_credits = False
    #: The circuit store, indexed like the router core's calendar:
    #: ``tables[router * stride + port]`` is that input port's
    #: ``{circuit key: CircuitEntry}`` (None where no port exists).
    #: Empty for variants that keep no circuit state at routers.
    tables: Sequence[Optional[Dict[CircuitKey, CircuitEntry]]] = ()

    def __init__(self, config: SystemConfig, mesh: Topology, stats: Stats) -> None:
        self.config = config
        self.circuit = config.circuit
        self.mesh = mesh
        self._local_base = mesh.local_base
        self.stats = stats
        self.noc = config.noc
        self._vn0_vcs = tuple(range(config.noc.vcs_per_vn[0]))
        self._vn1_vcs = tuple(range(config.noc.vcs_per_vn[1]))
        #: Ideal mode's flits waiting for the crossbar, by calendar key,
        #: each port first in first out (``IdealPolicy.retry_waiting``
        #: drains it); the router core stays awake while it is not empty.
        self.waits: Dict[int, List[Flit]] = {}
        # Hot per-flit counters, batched exactly like the router's (a
        # registered Stats flusher drains them at read boundaries; zero
        # deltas are never written so counter keys match unbatched runs).
        self._c_flit_hops = 0
        self._c_entries_used = 0
        self._c_conflict_waits = 0
        self._c_reservations = 0
        self._c_reservation_failed = 0
        self._c_ordinals: Dict[int, int] = {}
        stats.add_flusher(self._flush_counters)

    def _flush_counters(self) -> None:
        counters = self.stats.counters
        if self._c_flit_hops:
            counters["circuit.flit_hops"] += self._c_flit_hops
            self._c_flit_hops = 0
        if self._c_entries_used:
            counters["circuit.entries_used"] += self._c_entries_used
            self._c_entries_used = 0
        if self._c_conflict_waits:
            counters["circuit.ideal_conflict_waits"] += self._c_conflict_waits
            self._c_conflict_waits = 0
        if self._c_reservations:
            counters["circuit.reservations"] += self._c_reservations
            self._c_reservations = 0
        if self._c_reservation_failed:
            counters["circuit.reservation_failed"] += self._c_reservation_failed
            self._c_reservation_failed = 0
        if self._c_ordinals:
            for ordinal, n in self._c_ordinals.items():
                counters[f"circuit.reservation_ordinal.{ordinal}"] += n
            self._c_ordinals.clear()

    # -- static router shape -------------------------------------------
    def bufferless_vcs(self) -> Set[Tuple[int, int]]:
        """(vn, vc) pairs whose buffers this variant removes (sec. 4.2)."""
        return set()

    def allocatable_vcs(self, vn: int) -> Tuple[int, ...]:
        """VC indexes the router's VC allocator may grant for ``vn``."""
        return self._vn0_vcs if vn == 0 else self._vn1_vcs

    def injectable_vcs(self, vn: int) -> Tuple[int, ...]:
        """VC indexes a network interface may inject packets on."""
        return self.allocatable_vcs(vn)

    # -- router-side hooks ------------------------------------------------
    def handle_undo(self, router: "Router", port_key: int, key: CircuitKey,
                    cycle: int) -> None:
        """Process an undo notice from the credit channel (sec. 4.4)."""

    def on_request_va(self, router: "Router", in_port: int, msg: Message, cycle: int) -> None:
        """Reserve the reply's circuit, in parallel with VA (sec. 4.1)."""

    # -- NI-side hooks ------------------------------------------------------
    def on_request_injected(self, ni: "NetworkInterface", msg: Message, cycle: int) -> None:
        """Create the reservation walk a circuit-building request carries."""

    def on_request_delivered(self, ni: "NetworkInterface", msg: Message, cycle: int) -> None:
        """Store the delivered walk in the origin NI's circuit table."""

    def plan_reply(self, ni: "NetworkInterface", msg: Message, cycle: int) -> ReplyPlan:
        """Decide how a reply leaves the NI: its own circuit (possibly at
        a later timed release), a scrounged circuit, or packet-switched."""
        if msg.outcome_hint == "undone":
            return ReplyPlan("packet", "undone")
        outcome = "failed" if msg.circuit_eligible else "not_eligible"
        return ReplyPlan("packet", outcome)

    def validate_send(self, ni: "NetworkInterface", msg: Message, cycle: int) -> bool:
        """Last check at actual send time (timed windows may have moved)."""
        return True

    def cancel_origin(self, ni: "NetworkInterface", key: CircuitKey,
                      cycle: int) -> bool:
        """Returns True when a built circuit existed and was undone."""
        return False

    def on_scrounger_sent(self, ni: "NetworkInterface", plan: ReplyPlan, cycle: int) -> None:
        """A scrounger's tail left the NI (unpin its ridden circuit)."""

    def record_outcome(self, ni: "NetworkInterface", msg: Message, plan: ReplyPlan,
                       cycle: int) -> None:
        """Bump Fig. 6 outcome counters once, at actual send start."""
        if msg.outcome is not None:
            return
        if self.circuit.uses_circuits:
            msg.outcome = plan.outcome
            self.stats.bump(f"circuit.outcome.{plan.outcome}")
            self.stats.bump("circuit.replies_total")
        else:
            msg.outcome = "packet"  # baseline: no Fig. 6 classification
        _notify_protocol(
            msg,
            plan.kind == "circuit"
            and not plan.is_scrounger
            and self._guarantees_delivery(),
            cycle,
        )

    def _guarantees_delivery(self) -> bool:
        """Complete circuits never block, enabling ACK elimination."""
        return False


class _TablePolicy(CircuitPolicy):
    """Shared machinery for policies that store circuit state at routers."""

    def __init__(self, config: SystemConfig, mesh: Topology, stats: Stats) -> None:
        super().__init__(config, mesh, stats)
        #: Entries per input port (paper: 5).
        self.capacity = self.circuit.max_circuits_per_input
        self.stride = mesh.max_radix
        self.tables = [None] * (mesh.n_routers * self.stride)
        for router in range(mesh.n_routers):
            for port in mesh.router_ports(router):
                self.tables[router * self.stride + port] = {}

    # -- walks -----------------------------------------------------------
    def on_request_injected(self, ni: "NetworkInterface", msg: Message, cycle: int) -> None:
        if not msg.builds_circuit or msg.circuit_key is None:
            return
        msg.walk = CircuitWalk(
            key=msg.circuit_key,
            reply_flits=msg.reply_flits,
            path_hops=self.mesh.distance(msg.src, msg.dest),
            turnaround=msg.expected_turnaround,
        )

    def on_request_delivered(self, ni: "NetworkInterface", msg: Message, cycle: int) -> None:
        if msg.walk is not None:
            ni.origin_table[msg.walk.key] = OriginEntry(msg.walk.key, msg.walk, cycle)

    # -- undo ------------------------------------------------------------
    def handle_undo(self, router: "Router", port_key: int, key: CircuitKey,
                    cycle: int) -> None:
        if self.tables[port_key].pop(key, None) is not None:
            self.stats.bump("circuit.entries_undone")
        nxt = router.route_reply(key[0])
        if nxt < self._local_base:
            router.send_undo(nxt, key, cycle)

    def cancel_origin(self, ni: "NetworkInterface", key: CircuitKey,
                      cycle: int) -> bool:
        entry = ni.origin_table.get(key)
        if entry is None:
            return False
        had_circuit = bool(entry.walk.reserved_hops)
        if entry.pinned:
            # Scroungers are still riding; undo once the last one has left.
            entry.cancel_pending = True
            return had_circuit
        del ni.origin_table[key]
        if had_circuit:
            ni.send_undo(key, cycle)
            self.stats.bump("circuit.origin_cancelled")
        return had_circuit

    def on_scrounger_sent(self, ni: "NetworkInterface", plan: ReplyPlan, cycle: int) -> None:
        entry = plan.ride_entry
        if entry is None:
            return
        entry.pinned -= 1
        if entry.cancel_pending and entry.pinned == 0:
            entry.cancel_pending = False
            self.cancel_origin(ni, entry.key, cycle)

    # -- reservation helpers ----------------------------------------------
    def _circuit_ports(self, router: "Router", in_port: int, msg: Message
                       ) -> Tuple[int, int]:
        """(circuit input, circuit output) at this router for the reply.

        Ports are bidirectional: the reply re-enters this router through the
        same port the request left by, and leaves through the port the
        request arrived on (LOCAL at the path's end routers).
        """
        return router.route_vn(0, msg.dest), in_port

    def _record_hop(self, walk: CircuitWalk, router: "Router", circ_in: int,
                    circ_out: int, reserved: bool, vc_index: Optional[int] = None,
                    window: Tuple[Optional[int], Optional[int]] = (None, None),
                    ) -> None:
        walk.hops.append(HopRecord(router.node, circ_in, circ_out, reserved,
                                   vc_index, window[0], window[1]))


class CompletePolicy(_TablePolicy):
    """Complete circuits: all-or-nothing reservation, bufferless circuit VC,
    optional timed windows, ACK elimination, and circuit reuse."""

    name = "complete"
    arrival_filter = ON_CIRCUIT

    #: Reply VN VC dedicated to circuits (its buffers are removed).
    CIRCUIT_VC = 1

    def bufferless_vcs(self) -> Set[Tuple[int, int]]:
        return {(1, self.CIRCUIT_VC)}

    def allocatable_vcs(self, vn: int) -> Tuple[int, ...]:
        # Packet-switched replies are restricted to the non-circuit VC.
        return self._vn0_vcs if vn == 0 else (0,)

    def _guarantees_delivery(self) -> bool:
        return True

    # -- reservation --------------------------------------------------------
    def on_request_va(self, router: "Router", in_port: int, msg: Message, cycle: int) -> None:
        walk: Optional[CircuitWalk] = msg.walk
        if walk is None or walk.failed:
            return
        circ_in, circ_out = self._circuit_ports(router, in_port, msg)
        table = self.tables[router.node * self.stride + circ_in]
        window = self._window_for(router, msg, walk, cycle)
        live = purge_expired(table, cycle)
        ok = live < self.capacity
        if ok:
            ok = self._no_conflict(router, circ_in, circ_out, window, cycle)
            if not ok and self.circuit.allow_delay and window is not None:
                window = self._try_delayed(router, circ_in, circ_out, window,
                                           walk, cycle)
                ok = window is not None
        if not ok:
            self._fail_walk(router, walk, circ_in, circ_out, cycle)
            return
        table[walk.key] = CircuitEntry(
            key=walk.key,
            in_port=circ_in,
            out_port=circ_out,
            built_cycle=cycle,
            window_start=window[0] if window else None,
            window_end=window[1] if window else None,
        )
        self._record_hop(walk, router, circ_in, circ_out, True,
                         window=window or (None, None))
        # ``live`` was purged above and the new entry is live, so the
        # post-insert live count is exactly ``live + 1``.
        ordinal = min(live + 1, self.capacity)
        ords = self._c_ordinals
        ords[ordinal] = ords.get(ordinal, 0) + 1
        self._c_reservations += 1

    def _window_for(self, router: "Router", msg: Message, walk: CircuitWalk,
                    cycle: int) -> Optional[Tuple[int, int]]:
        """Optimistic [head arrival, tail departure] estimate (sec. 4.7).

        The estimate counts the request's remaining hops at 5 cycles/hop,
        the destination turnaround, and the reply's return at 2 cycles/hop;
        the constant accounts for ejection/injection link crossings.
        """
        if not self.circuit.timed:
            return None
        remaining = self.mesh.router_distance(router.node, msg.dest)
        estimate = (
            cycle
            + 7 * remaining
            + msg.n_flits
            + walk.turnaround
            + 6
            + walk.delay
        )
        occupancy = walk.reply_flits - 1
        if self.circuit.postponed:
            shift = self.circuit.postpone_per_hop * walk.path_hops
            return (estimate + shift, estimate + shift + occupancy)
        slack = self.circuit.slack_per_hop * walk.path_hops
        return (estimate, estimate + occupancy + max(0, slack - walk.delay))

    def _no_conflict(self, router: "Router", circ_in: int, circ_out: int,
                     window: Optional[Tuple[int, int]], cycle: int) -> bool:
        """Two circuits with different inputs may not share an output
        (simultaneously for untimed, with overlapping windows for timed)."""
        base = router.node * self.stride
        for port in router.ports:
            if port == circ_in:
                continue
            for entry in self.tables[base + port].values():
                if entry.out_port != circ_out or not entry.live(cycle):
                    continue
                if window is None or not entry.timed:
                    return False
                if entry.overlaps(window[0], window[1]):
                    return False
        return True

    def _try_delayed(self, router: "Router", circ_in: int, circ_out: int,
                     window: Tuple[int, int], walk: CircuitWalk, cycle: int,
                     ) -> Optional[Tuple[int, int]]:
        """SlackDelay: shift the slot later, within the remaining slack."""
        budget = self.circuit.slack_per_hop * walk.path_hops - walk.delay
        start, end = window
        for shift in range(1, budget + 1):
            cand = (start + shift, end)  # the tail slack shrinks as we shift
            if cand[1] - cand[0] < walk.reply_flits - 1:
                break
            if self._no_conflict(router, circ_in, circ_out, cand, cycle):
                walk.delay += shift
                return cand
        return None

    def _fail_walk(self, router: "Router", walk: CircuitWalk, circ_in: int,
                   circ_out: int, cycle: int) -> None:
        walk.failed = True
        self._record_hop(walk, router, circ_in, circ_out, False)
        self._c_reservation_failed += 1
        if any(h.reserved for h in walk.hops) and circ_out < self._local_base:
            router.send_undo(circ_out, walk.key, cycle)
            walk.aborted = True

    # -- reply-side ---------------------------------------------------------
    def plan_reply(self, ni: "NetworkInterface", msg: Message, cycle: int) -> ReplyPlan:
        if msg.outcome_hint == "undone":
            return self._packet_or_scrounge(ni, msg, "undone")
        if not msg.circuit_eligible or msg.circuit_key is None:
            return self._packet_or_scrounge(ni, msg, "not_eligible")
        origin = ni.origin_table.pop(msg.circuit_key, None)
        if origin is None or not origin.confirmed:
            return self._packet_or_scrounge(ni, msg, "failed")
        if self.circuit.timed:
            departure = origin.walk.feasible_departure(
                cycle, self.noc.circuit_hop_cycles, 2
            )
            if departure is None:
                self.stats.bump("circuit.window_missed")
                return self._packet_or_scrounge(ni, msg, "undone")
            msg.uses_circuit = True
            msg.walk = origin.walk
            return ReplyPlan("circuit", "on_circuit", release=departure,
                             dst_vc=self.CIRCUIT_VC)
        msg.uses_circuit = True
        msg.walk = origin.walk
        return ReplyPlan("circuit", "on_circuit", release=cycle,
                         dst_vc=self.CIRCUIT_VC)

    def validate_send(self, ni: "NetworkInterface", msg: Message, cycle: int) -> bool:
        if not self.circuit.timed or not msg.uses_circuit:
            return True
        departure = msg.walk.feasible_departure(
            cycle, self.noc.circuit_hop_cycles, 2
        )
        return departure == cycle

    def _packet_or_scrounge(self, ni: "NetworkInterface", msg: Message,
                            outcome: str) -> ReplyPlan:
        if self.circuit.reuse:
            ride = self._find_ride(ni, msg)
            if ride is not None:
                msg.final_dest = msg.dest
                msg.dest = ride.circuit_dest
                msg.ride_key = ride.key
                ride.pinned += 1
                return ReplyPlan("circuit", "scrounger", dst_vc=self.CIRCUIT_VC,
                                 is_scrounger=True, ride_entry=ride)
        return ReplyPlan("packet", outcome)

    def _find_ride(self, ni: "NetworkInterface", msg: Message) -> Optional[OriginEntry]:
        """Best live confirmed circuit bringing the reply strictly closer."""
        here = ni.node
        best: Optional[OriginEntry] = None
        best_dist = self.mesh.distance(here, msg.dest)
        for entry in ni.origin_table.values():
            if not entry.confirmed or entry.cancel_pending:
                continue
            if entry.circuit_dest == here:
                continue
            dist = self.mesh.distance(entry.circuit_dest, msg.dest)
            if dist < best_dist:
                best, best_dist = entry, dist
        return best

    # -- circuit flit traversal ----------------------------------------------
    def handle_arrival(self, router: "Router", port: int, port_key: int,
                       flit: Flit, cycle: int) -> bool:
        msg = flit.msg
        key = msg.ride_key if msg.ride_key is not None else msg.circuit_key
        table = self.tables[port_key]
        entry = table.get(key)
        if entry is None or (entry.window_end is not None
                             and entry.window_end < cycle):
            raise SimulationError(
                f"circuit flit {flit!r} found no entry at router "
                f"{router.node} port {router.mesh.port_name(port)} "
                f"(key={key})"
            )
        if not router.claim_path(port, entry.out_port):
            raise SimulationError(
                f"complete-circuit collision at router {router.node}: "
                f"{router.mesh.port_name(port)} -> "
                f"{router.mesh.port_name(entry.out_port)}"
            )
        router.forward_flit(entry.out_port, flit, cycle)
        self._c_flit_hops += 1
        if flit.is_tail and msg.ride_key is None:
            del table[key]
            self._c_entries_used += 1
        return True


class FragmentedPolicy(_TablePolicy):
    """Fragmented circuits: partial reservations with buffered circuit VCs.

    The reply VN has three VCs: VC0 for packet-switched replies and VC1/VC2
    reserved for circuits (at most two simultaneous circuits per input).
    A reply flies through routers where its circuit exists and falls back
    to the ordinary pipeline at gaps.
    """

    name = "fragmented"
    arrival_filter = REPLY_KEYED
    circuit_credits = True

    def __init__(self, config: SystemConfig, mesh: Topology, stats: Stats) -> None:
        super().__init__(config, mesh, stats)
        self._circuit_vc_indexes = tuple(range(1, self.noc.vcs_per_vn[1]))

    def allocatable_vcs(self, vn: int) -> Tuple[int, ...]:
        return self._vn0_vcs if vn == 0 else (0,)

    # -- reservation --------------------------------------------------------
    def on_request_va(self, router: "Router", in_port: int, msg: Message, cycle: int) -> None:
        walk: Optional[CircuitWalk] = msg.walk
        if walk is None:
            return
        circ_in, circ_out = self._circuit_ports(router, in_port, msg)
        table = self.tables[router.node * self.stride + circ_in]
        # First free circuit VC: the lowest index in _circuit_vc_indexes
        # not taken (no used-set for an empty table).
        free_vc = None
        if len(table) < self.capacity:
            if table:
                used = {e.vc_index for e in table.values()}
                for i in self._circuit_vc_indexes:
                    if i not in used:
                        free_vc = i
                        break
            else:
                idxs = self._circuit_vc_indexes
                if idxs:
                    free_vc = idxs[0]
        if free_vc is None:
            self._record_hop(walk, router, circ_in, circ_out, False)
            self._c_reservation_failed += 1
            return
        prev = walk.previous_hop()
        if prev is None:
            fwd_reserved, fwd_vc = True, None  # reply-downstream is the NI
        else:
            fwd_reserved = prev.reserved
            fwd_vc = prev.vc_index if prev.reserved else None
        table[walk.key] = CircuitEntry(
            key=walk.key,
            in_port=circ_in,
            out_port=circ_out,
            built_cycle=cycle,
            vc_index=free_vc,
            fwd_reserved=fwd_reserved,
            fwd_vc=fwd_vc,
        )
        self._record_hop(walk, router, circ_in, circ_out, True, vc_index=free_vc)
        ordinal = min(len(table), self.capacity)
        ords = self._c_ordinals
        ords[ordinal] = ords.get(ordinal, 0) + 1
        self._c_reservations += 1

    # -- reply-side ---------------------------------------------------------
    def plan_reply(self, ni: "NetworkInterface", msg: Message, cycle: int) -> ReplyPlan:
        if msg.outcome_hint == "undone":
            return ReplyPlan("packet", "undone")
        if not msg.circuit_eligible or msg.circuit_key is None:
            return ReplyPlan("packet", "not_eligible")
        origin = ni.origin_table.pop(msg.circuit_key, None)
        if origin is None or not origin.walk.hops:
            return ReplyPlan("packet", "failed")
        walk = origin.walk
        outcome = "on_circuit" if walk.fully_reserved else "failed"
        first_hop = walk.hops[-1]  # the reply enters the network at Rn
        if first_hop.reserved:
            msg.uses_circuit = True
            msg.walk = walk
            return ReplyPlan("circuit", outcome, release=cycle,
                             dst_vc=first_hop.vc_index)
        # Partially built circuits still accelerate mid-path hops even when
        # the reply must be injected packet-switched.
        msg.walk = walk
        return ReplyPlan("packet", outcome)

    # -- traversal ------------------------------------------------------------
    def handle_arrival(self, router: "Router", port: int, port_key: int,
                       flit: Flit, cycle: int) -> bool:
        # REPLY_KEYED: the entry exists, and fragmented entries are untimed.
        entry = self.tables[port_key][flit.msg.circuit_key]
        vc = router.inputs[port].vcs[1][entry.vc_index]
        if not vc.buffer and self._try_fly(router, port, entry, flit, cycle):
            if flit.is_tail:
                self._release_entry(router, port, port_key, entry, vc, cycle)
            return True
        self._buffer_on_circuit_vc(router, port, entry, vc, flit, cycle)
        return True

    def _try_fly(self, router: "Router", port: int, entry: CircuitEntry,
                 flit: Flit, cycle: int) -> bool:
        arrival_vc = flit.dst_vc
        out = entry.out_port
        if out >= self._local_base:
            if not router.claim_path(port, out):
                return False
            router.forward_flit(out, flit, cycle)
        elif entry.fwd_reserved and entry.fwd_vc is not None:
            out_vc = router.output_vc(out, 1, entry.fwd_vc)
            if out_vc.credits <= 0 or not router.claim_path(port, out):
                return False
            out_vc.credits -= 1
            flit.dst_vc = entry.fwd_vc
            router.forward_flit(out, flit, cycle)
        else:
            # Downstream hop not reserved: the flit continues packet-switched
            # in the downstream VC0, which we must own like a VA would.
            out_vc = router.output_vc(out, 1, 0)
            token = ("frag", flit.msg.uid)
            if out_vc.allocated_to not in (None, token):
                return False
            if out_vc.credits <= 0 or not router.claim_path(port, out):
                return False
            out_vc.allocated_to = token
            out_vc.credits -= 1
            flit.dst_vc = 0
            router.forward_flit(out, flit, cycle)
            if flit.is_tail:
                out_vc.allocated_to = None
        # The flit never occupied our buffer: return its credit immediately.
        router.return_credit(port, 1, arrival_vc, cycle)
        self._c_flit_hops += 1
        return True

    def _buffer_on_circuit_vc(self, router: "Router", port: int,
                              entry: CircuitEntry, vc, flit: Flit, cycle: int) -> None:
        # The flit may have been targeted at vc0 by a gap hop upstream; it
        # joins the reserved circuit VC, and the credit it owes upstream
        # (recorded per flit) is returned when it leaves this router.
        vc.buffer.append((flit, cycle, flit.dst_vc))
        router.core._c_buffer_writes += 1
        if vc.stage is VcStage.IDLE:
            vc.route = entry.out_port
            router.vc_became_busy(port, vc)
            vc.ready_cycle = cycle + 1
            if entry.out_port >= self._local_base or (
                entry.fwd_reserved and entry.fwd_vc is not None
            ):
                vc.stage = VcStage.ACTIVE
                vc.out_vc = entry.fwd_vc if entry.fwd_vc is not None else 0
                vc.out_obj = router.output_vc(entry.out_port, 1, vc.out_vc)
            else:
                out_vc = router.output_vc(entry.out_port, 1, 0)
                token = ("frag", flit.msg.uid)
                if out_vc.allocated_to == token:
                    vc.stage = VcStage.ACTIVE
                    vc.out_vc = 0
                    vc.out_obj = out_vc
                else:
                    vc.stage = VcStage.VA

    def _release_entry(self, router: "Router", port: int, port_key: int,
                       entry: CircuitEntry, vc, cycle: int) -> None:
        del self.tables[port_key][entry.key]
        self._c_entries_used += 1
        if vc.stage is not VcStage.IDLE and not vc.buffer:
            vc.reset_for_next_packet(cycle)
            if vc.stage is VcStage.IDLE:
                router.vc_became_idle(port, vc)

    def on_tail_departure(self, port_key: int, flit: Flit) -> None:
        """A tail that drained through its circuit VC frees the entry."""
        msg = flit.msg
        if msg.vn == 1 and msg.circuit_key is not None \
                and self.tables[port_key].pop(msg.circuit_key, None) is not None:
            self._c_entries_used += 1


class IdealPolicy(CircuitPolicy):
    """Upper bound (sec. 4.8): every eligible reply rides a circuit; per-hop
    conflicts cost one buffered cycle instead of failing the circuit."""

    name = "ideal"
    arrival_filter = ON_CIRCUIT

    def _guarantees_delivery(self) -> bool:
        # The ideal network delivers every circuit reply at circuit speed,
        # so it is paired with ACK elimination as the paper's upper bound.
        return True

    def plan_reply(self, ni: "NetworkInterface", msg: Message, cycle: int) -> ReplyPlan:
        if msg.circuit_eligible:
            msg.uses_circuit = True
            return ReplyPlan("circuit", "on_circuit", release=cycle, dst_vc=1)
        outcome = "undone" if msg.outcome_hint == "undone" else "not_eligible"
        return ReplyPlan("packet", outcome)

    def handle_arrival(self, router: "Router", port: int, port_key: int,
                       flit: Flit, cycle: int) -> bool:
        queue = self.waits.get(port_key)
        if queue is not None:
            queue.append(flit)
        elif self._try_forward(router, port, flit, cycle):
            return True
        else:
            self.waits[port_key] = [flit]
        self._c_conflict_waits += 1
        return True

    def retry_waiting(self, units: List[Optional["InputUnit"]], cycle: int) -> None:
        """Re-attempt the waiting flits, ports in calendar-key order;
        ``units`` maps a calendar key to its input unit."""
        waits = self.waits
        for port_key in sorted(waits):
            queue = waits[port_key]
            unit = units[port_key]
            while queue and self._try_forward(unit.router, unit.port,
                                              queue[0], cycle):
                del queue[0]
            if not queue:
                del waits[port_key]

    def _try_forward(self, router: "Router", port: int, flit: Flit, cycle: int) -> bool:
        out = router.route_reply(flit.msg.dest)
        if not router.claim_path(port, out):
            return False
        router.forward_flit(out, flit, cycle)
        self._c_flit_hops += 1
        return True


def make_policy(config: SystemConfig, mesh: Topology, stats: Stats) -> CircuitPolicy:
    """Instantiate the policy implementing ``config.circuit``."""
    mode = config.circuit.mode
    if mode is CircuitMode.NONE:
        return CircuitPolicy(config, mesh, stats)
    if mode is CircuitMode.FRAGMENTED:
        return FragmentedPolicy(config, mesh, stats)
    if mode is CircuitMode.COMPLETE:
        return CompletePolicy(config, mesh, stats)
    if mode is CircuitMode.IDEAL:
        return IdealPolicy(config, mesh, stats)
    raise ValueError(f"unknown circuit mode: {mode}")
