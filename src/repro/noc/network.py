"""Network assembly: routers, links, and network interfaces for a config."""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from repro.noc.flit import Message
from repro.noc.interface import NetworkInterface
from repro.noc.link import CreditLink, FlitLink
from repro.noc.router import Router
from repro.noc.topology import build_topology
from repro.sim.stats import Stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.config import SystemConfig
    from repro.sim.kernel import Simulator


class Network:
    """The full NoC of one simulated chip."""

    def __init__(self, config: "SystemConfig", stats: Optional[Stats] = None) -> None:
        # Imported here: repro.circuits depends on repro.noc's data types,
        # so the policy factory cannot be a module-level import.
        from repro.circuits.policy import make_policy

        self.config = config
        self.stats = stats if stats is not None else Stats()
        self.topo = build_topology(config)
        #: Legacy alias - most call sites only need n_nodes/neighbor-style
        #: queries that every Topology provides.
        self.mesh = self.topo
        self.policy = make_policy(config, self.topo, self.stats)
        self.routers: List[Router] = [
            Router(router, self.topo, config, self.policy, self.stats)
            for router in range(self.topo.n_routers)
        ]
        self.interfaces: List[NetworkInterface] = [
            NetworkInterface(node, self.topo, config, self.policy, self.stats)
            for node in range(self.topo.n_nodes)
        ]
        self._wire()

    def _wire(self) -> None:
        latency = self.config.noc.link_latency
        topo = self.topo
        # Router <-> router links.
        for rid, router in enumerate(self.routers):
            for port, nbr, back in topo.neighbors(rid):
                if router.out_flit[port] is not None:
                    continue
                neighbor = self.routers[nbr]
                down = FlitLink(latency)
                up = CreditLink(latency)
                down.watcher = neighbor
                up.watcher = router
                router.out_flit[port] = down
                router.in_credit[port] = up
                neighbor.in_flit[back] = down
                neighbor.out_credit[back] = up
                rev = FlitLink(latency)
                rev_credit = CreditLink(latency)
                rev.watcher = router
                rev_credit.watcher = neighbor
                neighbor.out_flit[back] = rev
                neighbor.in_credit[back] = rev_credit
                router.in_flit[port] = rev
                router.out_credit[port] = rev_credit
        # Router <-> NI (local port) links.
        for node, ni in enumerate(self.interfaces):
            router = self.routers[topo.router_of(node)]
            local = topo.local_port(node)
            inject = FlitLink(latency)
            inject_credit = CreditLink(latency)
            inject.watcher = router
            inject_credit.watcher = ni
            ni.to_router = inject
            router.in_flit[local] = inject
            router.out_credit[local] = inject_credit
            ni.credit_in = inject_credit
            eject = FlitLink(latency)
            eject_credit = CreditLink(latency)
            eject.watcher = ni
            eject_credit.watcher = router
            router.out_flit[local] = eject
            ni.from_router = eject
            ni.credit_out = eject_credit
            router.in_credit[local] = eject_credit
        for router in self.routers:
            router.finalize_wiring()

    # ------------------------------------------------------------------
    def interface(self, node: int) -> NetworkInterface:
        return self.interfaces[node]

    def set_deliver(self, node: int, callback: Callable[[Message, int], None]) -> None:
        self.interfaces[node].deliver = callback

    def inject(self, msg: Message, cycle: int) -> None:
        """Convenience injection entry point (used by traffic generators)."""
        self.interfaces[msg.src].enqueue(msg, cycle)

    def tick(self, cycle: int) -> None:
        """Advance every router, then every NI, by one cycle.

        Kept for manual drivers (traffic generators, unit tests); systems
        built on a :class:`~repro.sim.kernel.Simulator` should call
        :meth:`register` instead so each router/NI can sleep individually.
        """
        for router in self.routers:
            router.tick(cycle)
        for ni in self.interfaces:
            ni.tick(cycle)

    def register(self, sim: "Simulator", nodes=None) -> None:
        """Register each router and NI with ``sim`` as its own component.

        Preserves the exact intra-cycle order of :meth:`tick` (all routers,
        then all NIs) while letting the activity-driven kernel skip the
        idle ones.

        ``nodes`` (a set of node ids, or None for all) restricts
        registration to a shard's local routers/NIs: the sharded engine
        builds the full network in every worker for deterministic
        construction, but only the local slice may ever tick.  The
        relative order among registered components is unchanged, so a
        shard's intra-cycle schedule is a subsequence of the
        single-process one.
        """
        routers = (None if nodes is None
                   else {self.topo.router_of(n) for n in nodes})
        for router in self.routers:
            if routers is None or router.node in routers:
                sim.add(router)
        for ni in self.interfaces:
            if nodes is None or ni.node in nodes:
                sim.add(ni)

    def msgs_delivered(self) -> int:
        """Messages delivered so far, without flushing: the flushed
        ``noc.msgs_delivered`` count plus what the NIs still batch.  Cheap
        enough for a per-cycle hook (the progress watchdog's probe), which
        ``Stats.counter`` - a flush of every batcher - is not."""
        total = self.stats.counters.get("noc.msgs_delivered", 0)
        for ni in self.interfaces:
            total += ni._c_delivered_msgs
        return total

    def in_flight(self) -> int:
        """Flits/messages anywhere in the network or NI queues."""
        total = 0
        for router in self.routers:
            total += router.buffered_flits()
            total += len(router._st_pending)
            for port in router.ports:
                link = router.out_flit[port]
                if link is not None:
                    total += link.in_flight()
                total += len(router.inputs[port].wait_queue)
        for ni in self.interfaces:
            total += ni.pending_work()
        return total

    def flit_links(self):
        """Yield ``(label, FlitLink)`` for every flit channel exactly once.

        Covers router-to-router links, ejection links (a router's LOCAL
        output) and NI injection links.
        """
        for router in self.routers:
            for port in router.ports:
                link = router.out_flit[port]
                if link is not None:
                    yield (f"router{router.node}.out."
                           f"{self.topo.port_name(port)}", link)
        for ni in self.interfaces:
            if ni.to_router is not None:
                yield f"ni{ni.node}.inject", ni.to_router

    def credit_links(self):
        """Yield ``(label, CreditLink)`` for every credit channel exactly once.

        A router's ``out_credit`` map covers the upstream credit channels it
        drives (including the LOCAL one toward its NI); the NI ``credit_out``
        link (toward its router, used for undo notifications) is the only
        channel not owned by a router.
        """
        for router in self.routers:
            for port in router.ports:
                link = router.out_credit[port]
                if link is not None:
                    yield (f"router{router.node}.credit."
                           f"{self.topo.port_name(port)}", link)
        for ni in self.interfaces:
            if ni.credit_out is not None:
                yield f"ni{ni.node}.eject_credit", ni.credit_out

    def buffered_flits(self) -> int:
        """Flits sitting in router input buffers chip-wide (occupancy)."""
        return sum(router.buffered_flits() for router in self.routers)

    def buffered_flits_by_vn(self) -> List[int]:
        """Router input-buffer occupancy split by virtual network."""
        totals = [0] * len(self.config.noc.vcs_per_vn)
        for router in self.routers:
            for _port, unit in router._input_units:
                for vn, row in enumerate(unit.vcs):
                    totals[vn] += sum(len(vc.buffer) for vc in row)
        return totals

    def circuit_entries(self) -> int:
        """Raw circuit-table occupancy (may include expired timed entries)."""
        return sum(router.circuit_entries() for router in self.routers)

    def live_circuit_entries(self, cycle: int) -> int:
        """Circuit entries still live at ``cycle`` (expired ones purged)."""
        total = 0
        for router in self.routers:
            for _port, unit in router._input_units:
                if unit.circuit_table is not None:
                    total += unit.circuit_table.live_count(cycle)
        return total
