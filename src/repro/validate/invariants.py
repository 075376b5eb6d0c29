"""Runtime invariant monitor for the NoC + coherence stack.

The :class:`InvariantMonitor` registers as a :class:`~repro.sim.kernel.Simulator`
watchdog (or is called manually once per cycle) and every ``interval``
cycles re-derives the system's conservation laws from first principles:

``flit_conservation``
    Every flit ever injected is either delivered, relayed by a scrounger
    intermediate hop, or still somewhere in the network (VC buffers, link
    pipelines, ideal-mode wait queues, partially reassembled at an NI).

``credit_conservation``
    For every flow-controlled (vn, vc) on every link edge, the upstream
    credit counter plus in-flight flits, in-flight credits, downstream
    buffer occupancy and switch-allocated-but-not-yet-traversed grants
    must equal the buffer depth.

``link_sanity``
    No flit/credit on a wire - an entry of the router core's arrival
    calendar - is due further in the future than the link latency allows.

``circuit_lifecycle``
    Entries of the policy's circuit store are reachable (their key is still referenced by
    an origin, an in-flight message or a pending undo), origins' reserved
    hops have matching entries, windows are well-formed, and
    guaranteed-complete circuits never share an output port.

``forward_progress``
    No input-VC head flit sits unserviced longer than ``stall_threshold``
    cycles (a localised deadlock detector - the global
    :class:`~repro.sim.kernel.ProgressWatchdog` only sees chip-wide stalls).

``kernel_sleep``
    (Only when :meth:`InvariantMonitor.attach`-ed to a Simulator.)
    The activity-driven kernel's sleep bookkeeping is sound: a sleeping
    router core (routers and NIs)/controller/core really has no runnable
    work, and any future-dated work (calendar entries, scheduled
    handlers, held circuit replies, queued undo notices) has a wakeup
    scheduled no later than its due cycle.

``coherence``
    (Only when constructed with a :class:`~repro.system.CmpSystem`.)
    At most one L1 holds a line in E/M, every in-flight GETS/GETX has a
    matching live L1 MSHR, and L2 directory transaction/line/queue state
    is mutually consistent.

All checks are read-only: a monitored run makes exactly the same
architectural decisions as an unmonitored one, so cached
:class:`~repro.harness.experiment.RunResult` values stay bit-identical.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.kernel import SimulationError

class InvariantViolation(SimulationError):
    """A conservation law failed.

    ``check`` names the family (one of :data:`ALL_CHECKS`), ``location``
    pinpoints the router/port/VC/line, ``details`` carries the raw
    numbers, and ``report`` (filled in when forensics are enabled) is the
    structured crash report.
    """

    def __init__(
        self,
        check: str,
        message: str,
        cycle: Optional[int] = None,
        location: Optional[str] = None,
        details: Optional[dict] = None,
    ) -> None:
        where = f" at {location}" if location else ""
        super().__init__(f"[{check}]{where} (cycle {cycle}): {message}")
        self.check = check
        self.cycle = cycle
        self.location = location
        self.details = details or {}
        self.report = None


# ----------------------------------------------------------------------
# Census helpers (module level so forensics can reuse them).
# ----------------------------------------------------------------------

def wire_items(net, kind: str) -> Iterable[Tuple[int, int, object]]:
    """``(due, key, item)`` for every ``kind`` ("flits" / "credits") on
    a wire: the router core's calendar entries, ``key`` naming the
    receiving router port or NI (``Network.channel_label``)."""
    for due, bucket in getattr(net.core, kind).items():
        for key, item in bucket:
            yield due, key, item


def by_key(calendar: dict) -> Dict[int, list]:
    """A calendar's items regrouped by key, each group in due order."""
    groups: Dict[int, list] = {}
    for _due, bucket in sorted(calendar.items()):
        for key, item in bucket:
            groups.setdefault(key, []).append(item)
    return groups


def flit_census(net) -> int:
    """Exact count of flits currently inside the network.

    Unlike :meth:`Network.in_flight` (a drain detector that may count a
    switch-allocated flit twice), this counts every flit exactly once:
    input-VC buffers + ideal-mode wait queues + flits on a wire + flits
    of partially reassembled messages at the NIs.
    """
    total = sum(1 for _item in wire_items(net, "flits"))
    for router in net.routers:
        total += router.buffered_flits()
    for queue in net.policy.waits.values():
        total += len(queue)
    for ni in net.interfaces:
        total += ni.rx_partial_flits()
    return total


def iter_network_messages(net) -> Iterable:
    """Yield every message currently represented inside the NoC layer."""
    seen = set()

    def _once(msg):
        if msg is not None and id(msg) not in seen:
            seen.add(id(msg))
            yield msg

    for _due, _key, flit in wire_items(net, "flits"):
        for msg in _once(flit.msg):
            yield msg
    for router in net.routers:
        for _port, unit in router._input_units:
            for vn_row in unit.vcs:
                for vc in vn_row:
                    for flit, _arrival, _credit_vc in vc.buffer:
                        for msg in _once(flit.msg):
                            yield msg
    for queue in net.policy.waits.values():
        for flit in queue:
            for msg in _once(flit.msg):
                yield msg
    for ni in net.interfaces:
        for queue in (ni.req_queue, ni.reply_pending, ni.reply_queue):
            for msg in queue:
                for m in _once(msg):
                    yield m
        for _release, _seq, msg in ni.held:
            for m in _once(msg):
                yield m
        if ni.active_circuit is not None:
            for m in _once(ni.active_circuit.msg):
                yield m
        for act in ni.active_packet.values():
            if act is not None:
                for m in _once(act.msg):
                    yield m


def accounted_circuit_keys(net) -> Set:
    """Keys a circuit-table entry may legitimately be waiting on."""
    keys = set()
    for msg in iter_network_messages(net):
        if getattr(msg, "circuit_key", None) is not None:
            keys.add(msg.circuit_key)
        if getattr(msg, "ride_key", None) is not None:
            keys.add(msg.ride_key)
    for ni in net.interfaces:
        keys.update(ni.origin_table.keys())
        for _due, key in ni._undo_out:
            keys.add(key)
    for _due, _key, credit in wire_items(net, "credits"):
        if credit.undo_key is not None:
            keys.add(credit.undo_key)
    return keys


class InvariantMonitor:
    """Watchdog-compatible invariant checker (see module docstring).

    Parameters
    ----------
    net:
        The :class:`~repro.noc.network.Network` to audit.
    system:
        Optional :class:`~repro.system.CmpSystem`; enables the coherence
        checks.
    interval:
        Check every ``interval`` cycles (the monitor is a no-op on other
        cycles, so it can be called unconditionally).
    checks:
        Subset of :data:`ALL_CHECKS` to run (default: all applicable).
    stall_threshold:
        Head-of-line age, in cycles, past which ``forward_progress``
        declares a blocked VC dead.
    forensics:
        Attach a structured crash report to raised violations.
    local_nodes:
        When auditing one shard of a sharded run (``repro.sim.shard``),
        the set of nodes this process actually simulates.  Checks that
        cross-reference state living in another process (credit books on
        boundary edges, orphaned circuit entries, exclusive ownership
        against stale foreign cache replicas) restrict themselves to the
        local slice; conservation laws account for flits imported from /
        exported to other shards via ``net.shard_flits_imported`` /
        ``net.shard_flits_exported``.
    """

    def __init__(
        self,
        net,
        system=None,
        interval: int = 1000,
        checks: Optional[Iterable[str]] = None,
        stall_threshold: int = 25_000,
        forensics: bool = True,
        local_nodes: Optional[Iterable[int]] = None,
    ) -> None:
        if interval < 1:
            raise ValueError("interval must be positive")
        self.net = net
        self.system = system
        self.local = frozenset(local_nodes) if local_nodes is not None \
            else None
        #: Routers owned by this shard (node set mapped through the
        #: topology's node->router embedding); None = all.
        self.local_routers = None if self.local is None else frozenset(
            net.topo.router_of(n) for n in self.local)
        self.interval = interval
        self.stall_threshold = stall_threshold
        self.forensics = forensics
        self.checks = tuple(checks) if checks is not None else ALL_CHECKS
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown invariant checks: {sorted(unknown)}")
        self.checks_run = 0
        self.violations = 0
        #: Simulator this monitor is attached to (enables kernel_sleep).
        self.sim = None
        policy = net.policy
        self._policy_name = getattr(policy, "name", "baseline")
        self._circuit_credits = policy.circuit_credits
        self._bufferless = set(policy.bufferless_vcs())

    # -- wiring --------------------------------------------------------
    def attach(self, sim) -> "InvariantMonitor":
        """Register with a :class:`Simulator` as a per-cycle watchdog."""
        self.sim = sim
        sim.add_watchdog(self)
        return self

    def __call__(self, cycle: int) -> None:
        if cycle % self.interval:
            return
        self.check_now(cycle)

    def next_due(self, cycle: int) -> int:
        """Next cycle a check fires (bounds kernel clock fast-forwarding)."""
        remainder = cycle % self.interval
        return cycle if remainder == 0 else cycle + self.interval - remainder

    def check_now(self, cycle: int) -> None:
        """Run every enabled check immediately (raises on violation)."""
        self.checks_run += 1
        for check in self.checks:
            if check == "coherence" and self.system is None:
                continue
            if check == "kernel_sleep" and self.sim is None:
                continue
            self._CHECKERS[check](self, cycle)

    # -- violation plumbing --------------------------------------------
    def _fail(
        self,
        check: str,
        cycle: int,
        location: Optional[str],
        message: str,
        details: Optional[dict] = None,
    ) -> InvariantViolation:
        self.violations += 1
        violation = InvariantViolation(
            check, message, cycle=cycle, location=location, details=details
        )
        if self.forensics:
            from repro.validate.forensics import crash_report

            violation.report = crash_report(
                self.net, system=self.system, error=violation, cycle=cycle
            )
        return violation

    # -- check: link sanity --------------------------------------------
    def check_link_sanity(self, cycle: int) -> None:
        net = self.net
        horizon = cycle + net.core.latency + 1
        for kind in ("flits", "credits"):
            for due, key, item in wire_items(net, kind):
                if due > horizon:
                    raise self._fail(
                        "link_sanity", cycle, net.channel_label(key),
                        f"{kind[:-1]} {item!r} due at cycle {due}, beyond "
                        f"the link's horizon {horizon}",
                        {"due": due, "horizon": horizon},
                    )

    # -- check: flit conservation --------------------------------------
    def check_flit_conservation(self, cycle: int) -> None:
        stats = self.net.stats
        injected = stats.counter("noc.flits_injected")
        delivered = stats.counter("noc.flits_delivered")
        relayed = stats.counter("noc.flits_relayed")
        census = flit_census(self.net)
        # Sharded runs: flits crossing the shard boundary leave/enter this
        # process at window barriers; the driver maintains the transfer
        # counters (zero / absent on single-process nets).
        imported = getattr(self.net, "shard_flits_imported", 0)
        exported = getattr(self.net, "shard_flits_exported", 0)
        if injected + imported != delivered + relayed + exported + census:
            raise self._fail(
                "flit_conservation", cycle, None,
                f"injected {injected} + imported {imported} flits but "
                f"delivered {delivered} + relayed {relayed} + "
                f"exported {exported} + in-network {census} = "
                f"{delivered + relayed + exported + census}",
                {
                    "injected": injected,
                    "imported": imported,
                    "delivered": delivered,
                    "relayed": relayed,
                    "exported": exported,
                    "in_network": census,
                },
            )

    # -- check: credit conservation ------------------------------------
    def check_credit_conservation(self, cycle: int) -> None:
        net = self.net
        local = self.local
        local_routers = self.local_routers
        topo = net.topo
        local_base = topo.local_base
        flits = by_key(net.core.flits)
        credits = by_key(net.core.credits)
        granted_at: Dict[int, Dict[Tuple[int, int, int], int]] = {}
        for router, _in_port, vc in net.core.grants:
            if vc.route is None or vc.route >= local_base:
                continue
            if vc.out_vc is None:
                continue
            granted = granted_at.setdefault(router.node, {})
            key = (vc.route, vc.vn, vc.out_vc)
            granted[key] = granted.get(key, 0) + 1
        for router in net.routers:
            if local_routers is not None and router.node not in local_routers:
                continue  # books span processes; audited by the owner shard
            granted = granted_at.get(router.node, {})
            for port in router.ports:
                if port >= local_base:
                    continue
                down = flits.get(router.flit_to[port], ())
                up = credits.get(router.node * net.core.stride + port, ())
                neighbor_router = topo.neighbor(router.node, port)
                if local_routers is not None \
                        and neighbor_router not in local_routers:
                    # Boundary edge: upstream credits live here, downstream
                    # occupancy in another process - neither side can sum
                    # the books alone.
                    continue
                neighbor = net.routers[neighbor_router]
                in_unit = neighbor.inputs[topo.opposite(port)]
                out_unit = router.outputs[port]
                edge_granted = {
                    (vn, vc): count
                    for (p, vn, vc), count in granted.items()
                    if p == port
                }
                self._check_edge(
                    cycle,
                    f"router {router.node} {topo.port_name(port)} -> "
                    f"router {neighbor.node}",
                    lambda vn, vc, _u=out_unit: _u.vcs[vn][vc].credits,
                    down, up, in_unit, edge_granted,
                )
        for ni in net.interfaces:
            if local is not None and ni.node not in local:
                continue
            rid = topo.router_of(ni.node)
            lport = topo.local_port(ni.node)
            in_unit = net.routers[rid].inputs[lport]
            self._check_edge(
                cycle,
                f"ni {ni.node} -> router {rid} {topo.port_name(lport)}",
                lambda vn, vc, _ni=ni: _ni.credits[vn][vc],
                flits.get(ni.router_key, ()),
                credits.get(net.core.ni_base + ni.node, ()), in_unit, {},
            )

    def _check_edge(
        self, cycle, label, upstream_credits, down, up, in_unit, granted
    ) -> None:
        link_counts: Dict[Tuple[int, int], int] = {}
        for flit in down:
            if flit.on_circuit and not self._circuit_credits:
                continue  # complete/ideal circuit flits bypass flow control
            key = (flit.msg.vn, flit.dst_vc)
            link_counts[key] = link_counts.get(key, 0) + 1
        credit_counts: Dict[Tuple[int, int], int] = {}
        for credit in up:
            if credit.is_buffer_credit:
                key = (credit.vn, credit.vc)
                credit_counts[key] = credit_counts.get(key, 0) + 1
        occupancy: Dict[Tuple[int, int], int] = {}
        for vn_row in in_unit.vcs:
            for vc in vn_row:
                for _flit, _arrival, credit_vc in vc.buffer:
                    key = (vc.vn, credit_vc)
                    occupancy[key] = occupancy.get(key, 0) + 1
        for vn, vn_row in enumerate(in_unit.vcs):
            for index, in_vc in enumerate(vn_row):
                if in_vc.depth == 0 or (vn, index) in self._bufferless:
                    continue
                key = (vn, index)
                parts = {
                    "upstream_credits": upstream_credits(vn, index),
                    "flits_on_link": link_counts.get(key, 0),
                    "credits_on_link": credit_counts.get(key, 0),
                    "buffered_downstream": occupancy.get(key, 0),
                    "granted_awaiting_st": granted.get(key, 0),
                }
                total = sum(parts.values())
                if total != in_vc.depth:
                    raise self._fail(
                        "credit_conservation", cycle,
                        f"{label} vn{vn} vc{index}",
                        f"credit books sum to {total}, expected the buffer "
                        f"depth {in_vc.depth}: {parts}",
                        dict(parts, depth=in_vc.depth),
                    )

    # -- check: circuit lifecycle --------------------------------------
    def check_circuit_lifecycle(self, cycle: int) -> None:
        if self._policy_name not in ("complete", "fragmented"):
            return
        net = self.net
        accounted = accounted_circuit_keys(net)
        complete = self._policy_name == "complete"
        tables = net.policy.tables
        stride = net.core.stride
        # Map each origin to the (node, in_port) positions it reserved.
        origin_hops: Dict[object, Dict[Tuple[int, int], object]] = {}
        for ni in net.interfaces:
            for key, origin in ni.origin_table.items():
                walk = getattr(origin, "walk", None)
                if walk is None:
                    continue
                if complete and not walk.fully_reserved:
                    # A failed complete walk tears its hops down via undo;
                    # entries may legitimately be mid-removal.
                    continue
                hops = {
                    (hop.node, hop.in_port): hop
                    for hop in walk.hops
                    if hop.reserved
                }
                origin_hops[key] = hops
                for (node, in_port), hop in hops.items():
                    if self.local_routers is not None \
                            and node not in self.local_routers:
                        continue  # hop reserved at a router in another shard
                    if hop.window_end is not None and hop.window_end < cycle:
                        continue  # expired windows self-clean lazily
                    entry = tables[node * stride + in_port].get(key)
                    if entry is None:
                        raise self._fail(
                            "circuit_lifecycle", cycle,
                            f"router {node} "
                            f"{net.topo.port_name(in_port)}",
                            f"origin at node {ni.node} holds a reserved hop "
                            f"for key {key} but the router has no matching "
                            f"entry (dangling reservation)",
                            {"key": list(key), "kind": "dangling"},
                        )
                    if (entry.window_start, entry.window_end) != (
                        hop.window_start, hop.window_end
                    ):
                        raise self._fail(
                            "circuit_lifecycle", cycle,
                            f"router {node} "
                            f"{net.topo.port_name(in_port)}",
                            f"entry window "
                            f"[{entry.window_start}, {entry.window_end}] "
                            f"disagrees with the origin walk's "
                            f"[{hop.window_start}, {hop.window_end}] "
                            f"for key {key}",
                            {"key": list(key), "kind": "window_mismatch"},
                        )
        capacity = net.policy.capacity
        for router in net.routers:
            sharing: List[Tuple[int, object]] = []
            for port in router.ports:
                table = tables[router.node * stride + port]
                if len(table) > capacity:
                    raise self._fail(
                        "circuit_lifecycle", cycle,
                        f"router {router.node} {net.topo.port_name(port)}",
                        f"{len(table)} entries exceed the table "
                        f"capacity {capacity}",
                        {"kind": "capacity"},
                    )
                for key, entry in table.items():
                    if entry.timed:
                        if entry.window_start > entry.window_end:
                            raise self._fail(
                                "circuit_lifecycle", cycle,
                                f"router {router.node} {net.topo.port_name(port)}",
                                f"entry for key {key} has an inverted "
                                f"window [{entry.window_start}, "
                                f"{entry.window_end}]",
                                {"key": list(key), "kind": "window_inverted"},
                            )
                        if complete and entry.live(cycle):
                            sharing.append((port, entry))
                        continue
                    # Orphan detection needs a global view: a local entry
                    # may be referenced by an origin or in-flight message
                    # in another shard, so sharded audits skip it.
                    if self.local is None and key not in accounted:
                        raise self._fail(
                            "circuit_lifecycle", cycle,
                            f"router {router.node} {net.topo.port_name(port)}",
                            f"entry for key {key} is orphaned: no origin, "
                            f"in-flight message or pending undo references "
                            f"it",
                            {"key": list(key), "kind": "orphan"},
                        )
                    hops = origin_hops.get(key)
                    if hops is not None and (router.node, port) not in hops:
                        raise self._fail(
                            "circuit_lifecycle", cycle,
                            f"router {router.node} {net.topo.port_name(port)}",
                            f"entry for key {key} sits at a position its "
                            f"origin walk never reserved",
                            {"key": list(key), "kind": "misplaced"},
                        )
                    if complete:
                        sharing.append((port, entry))
            # Guaranteed-complete circuits must own their output port:
            # mirror of CompletePolicy._no_conflict.
            for i, (port_a, entry_a) in enumerate(sharing):
                for port_b, entry_b in sharing[i + 1:]:
                    if port_a == port_b:
                        continue
                    if entry_a.out_port != entry_b.out_port:
                        continue
                    if entry_a.timed and entry_b.timed:
                        if not entry_a.overlaps(
                            entry_b.window_start, entry_b.window_end
                        ):
                            continue
                        kind = "window_overlap"
                    else:
                        kind = "output_conflict"
                    raise self._fail(
                        "circuit_lifecycle", cycle,
                        f"router {router.node}",
                        f"complete circuits {entry_a.key} "
                        f"({net.topo.port_name(port_a)}) and {entry_b.key} "
                        f"({net.topo.port_name(port_b)}) share output "
                        f"{net.topo.port_name(entry_a.out_port)} ({kind})",
                        {
                            "kind": kind,
                            "keys": [list(entry_a.key), list(entry_b.key)],
                        },
                    )

    # -- check: coherence ----------------------------------------------
    def check_coherence(self, cycle: int) -> None:
        system = self.system
        if system is None:
            return
        from repro.coherence.l1 import L1State
        from repro.coherence.messages import Kind

        exclusive = (L1State.EXCLUSIVE, L1State.MODIFIED)
        local = self.local
        owners: Dict[int, int] = {}
        for tile in system.tiles:
            # Foreign tiles in a shard replica hold stale prewarm state
            # (ownership transfers happen in their own process).
            if local is not None and tile.node not in local:
                continue
            for addr, line in tile.l1.array.items():
                if line.state in exclusive:
                    other = owners.get(addr)
                    if other is not None:
                        raise self._fail(
                            "coherence", cycle, f"addr {addr:#x}",
                            f"L1s at nodes {other} and {tile.node} both "
                            f"hold the line in an exclusive state",
                            {"addr": addr, "nodes": [other, tile.node]},
                        )
                    owners[addr] = tile.node
        for msg in iter_network_messages(self.net):
            if msg.kind not in (Kind.GETS, Kind.GETX):
                continue
            requestor = msg.payload.requestor
            if local is not None and requestor not in local:
                continue  # the requestor's MSHR lives in another shard
            l1 = system.tiles[requestor].l1
            pending = l1.pending
            if pending is None or pending[0] != msg.payload.addr:
                raise self._fail(
                    "coherence", cycle, f"node {requestor}",
                    f"in-flight {msg.kind} for addr {msg.payload.addr:#x} "
                    f"has no matching live MSHR (pending={pending})",
                    {"addr": msg.payload.addr, "kind": msg.kind},
                )
        for tile in system.tiles:
            if local is not None and tile.node not in local:
                continue
            l2 = tile.l2
            if l2 is None:
                continue
            # A way still holding its default line has never been handed
            # to the controller, so it cannot be busy - and reading it
            # (``peek``) would build it: the monitor only observes.
            lines = dict(l2.array.items(defaults=False))
            for addr, txn in l2.txns.items():
                if txn.kind.name == "EVICT":
                    continue  # eviction transactions track a removed line
                line = lines.get(addr)
                if line is None or not line.busy:
                    raise self._fail(
                        "coherence", cycle,
                        f"L2 bank {tile.node} addr {addr:#x}",
                        f"directory transaction {txn.kind.name} has no "
                        f"busy line backing it",
                        {"addr": addr, "txn": txn.kind.name},
                    )
            for addr, line in lines.items():
                if line.busy and addr not in l2.txns:
                    raise self._fail(
                        "coherence", cycle,
                        f"L2 bank {tile.node} addr {addr:#x}",
                        f"line is busy but no transaction is tracking it",
                        {"addr": addr},
                    )

    # -- check: kernel sleep bookkeeping -------------------------------
    def check_kernel_sleep(self, cycle: int) -> None:
        """A sleeping component must truly have no runnable work.

        Re-derives each component class's idleness from its raw state
        (buffers, queues, event heaps) rather than trusting its
        ``next_wake`` - the very method under audit.  Future-dated work
        is legal while asleep only if a wakeup is scheduled at or before
        its due cycle.
        """
        if self.sim is None:
            return
        from repro.coherence.base import ScheduledController
        from repro.cpu.core import Core
        from repro.noc.router import RouterCore

        def fail(label, message, details=None):
            raise self._fail("kernel_sleep", cycle, label, message, details)

        for component, wake_at in self.sim.sleeping_slots():
            if isinstance(component, RouterCore):
                self._check_core_sleep(component, wake_at, cycle, fail)
            elif isinstance(component, ScheduledController):
                label = f"{type(component).__name__} {component.node}"
                if component._events:
                    due = component._events[0][0]
                    if wake_at is None or wake_at > due:
                        fail(
                            label,
                            f"sleeping controller has a handler due at "
                            f"cycle {due} but its wakeup is scheduled at "
                            f"{wake_at}",
                            {"due": due, "wake_at": wake_at},
                        )
            elif isinstance(component, Core):
                # An L1 fill during this cycle (L1s tick after cores)
                # clears `waiting` and schedules the wake for cycle + 1;
                # the core legitimately stays asleep until then.
                resumed = wake_at is not None and wake_at <= cycle + 1
                if not component.waiting and not component.done \
                        and not resumed:
                    fail(
                        f"core {component.node}",
                        "sleeping core is neither blocked on the L1 nor "
                        "done, and no wakeup is scheduled",
                        {"retired": component.retired,
                         "target": component.target,
                         "wake_at": wake_at},
                    )

    def _check_core_sleep(self, core, wake_at, cycle, fail) -> None:
        """A sleeping router core holds no busy VC, pending grant, waiting
        flit, queued NI message or active NI send, and wakes no later than
        its earliest calendar entry, held circuit reply or undo notice."""
        from repro.noc.vc import VcStage

        for router in core.routers:
            for port, unit in router._input_units:
                for vn_row in unit.vcs:
                    for vc in vn_row:
                        if vc.stage is not VcStage.IDLE:
                            fail(f"router {router.node}",
                                 f"sleeping router core holds busy VC "
                                 f"{self.net.topo.port_name(port)} "
                                 f"vn{vc.vn} vc{vc.index} "
                                 f"(stage {vc.stage.value})")
        waiting = sum(len(queue) for queue in core.policy.waits.values())
        if core.grants or waiting:
            fail("router core",
                 f"sleeping router core holds runnable work: "
                 f"{len(core.grants)} granted traversals, {waiting} waiting",
                 {"grants": len(core.grants), "waiting": waiting})
        # A message enqueued *this* cycle while the core slept (its wake
        # entry is due at cycle + 1) is injectable only from the next
        # cycle: the scheduled wakeup delivers it.
        resumed = wake_at is not None and wake_at <= cycle + 1
        for ni in core.interfaces:
            label = f"ni {ni.node}"
            queued = (len(ni.req_queue) + len(ni.reply_pending)
                      + len(ni.reply_queue))
            active = sum(1 for act in ni.active_packet.values()
                         if act is not None)
            if ni.active_circuit is not None:
                active += 1
            if (queued and not resumed) or active:
                fail(label,
                     f"sleeping router core holds NI work: {queued} "
                     f"queued, {active} active sends",
                     {"queued": queued, "active": active,
                      "wake_at": wake_at})
            for kind, due in (
                ("held reply", ni.held[0][0] if ni.held else None),
                ("undo notice", min(entry[0] for entry in ni._undo_out)
                 if ni._undo_out else None),
            ):
                if due is not None and (wake_at is None
                                        or wake_at > max(due, cycle + 1)):
                    fail(label,
                         f"sleeping router core has an NI {kind} due at "
                         f"cycle {due} but its wakeup is scheduled at "
                         f"{wake_at}",
                         {"due": due, "wake_at": wake_at})
        due = min((due for calendar in (core.flits, core.credits, core.wakes)
                   for due, bucket in calendar.items() if bucket),
                  default=None)
        if due is not None and (wake_at is None or wake_at > due):
            fail("router core",
                 f"sleeping router core has calendar entries due at cycle "
                 f"{due} but its wakeup is scheduled at {wake_at}",
                 {"due": due, "wake_at": wake_at})

    # -- check: forward progress ---------------------------------------
    def check_forward_progress(self, cycle: int) -> None:
        threshold = self.stall_threshold
        for router in self.net.routers:
            for port, unit in router._input_units:
                for vn_row in unit.vcs:
                    for vc in vn_row:
                        if not vc.buffer:
                            continue
                        age = cycle - vc.buffer[0][1]
                        if age > threshold:
                            flit = vc.buffer[0][0]
                            raise self._fail(
                                "forward_progress", cycle,
                                f"router {router.node} "
                                f"{self.net.topo.port_name(port)} "
                                f"vn{vc.vn} vc{vc.index}",
                                f"head flit of {flit.msg.kind} "
                                f"uid={flit.msg.uid} stalled for {age} "
                                f"cycles (stage {vc.stage})",
                                {"age": age, "uid": flit.msg.uid},
                            )

    #: Each check family's checker, in evaluation order.  Order matters
    #: for fault attribution: the cheapest, most local law that a fault
    #: breaks should fire before its knock-on effects trip a broader one.
    #: ``kernel_sleep`` audits the simulation kernel itself (a sleeping
    #: component must truly have no runnable work) and runs first: if the
    #: activity tracking is wrong, every higher-level law is suspect.
    _CHECKERS = {
        "kernel_sleep": check_kernel_sleep,
        "link_sanity": check_link_sanity,
        "flit_conservation": check_flit_conservation,
        "credit_conservation": check_credit_conservation,
        "circuit_lifecycle": check_circuit_lifecycle,
        "coherence": check_coherence,
        "forward_progress": check_forward_progress,
    }


#: Check family names in evaluation order (the names
#: :attr:`InvariantViolation.check` carries).
ALL_CHECKS = tuple(InvariantMonitor._CHECKERS)
