"""Network assembly: routers, network interfaces, and the core clocking them."""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from repro.noc.flit import Message
from repro.noc.interface import NetworkInterface
from repro.noc.router import Router, RouterCore
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
        self.policy = make_policy(config, self.topo, self.stats)
        #: The one kernel component clocking every router and NI.
        self.core = RouterCore(self.topo, config, self.policy, self.stats)
        self.routers: List[Router] = [
            Router(router, self.topo, config, self.policy, self.stats,
                   self.core)
            for router in range(self.topo.n_routers)
        ]
        self.interfaces: List[NetworkInterface] = [
            NetworkInterface(node, self.topo, config, self.policy, self.stats)
            for node in range(self.topo.n_nodes)
        ]
        self._wire()

    def _wire(self) -> None:
        topo = self.topo
        core = self.core
        stride = core.stride
        # Router -> router: flits leaving through ``port`` arrive at the
        # neighbour's input ``back``; credits for flits received on
        # ``port`` return to the neighbour's output ``back`` - one key.
        for rid, router in enumerate(self.routers):
            for port, nbr, back in topo.neighbors(rid):
                router.flit_to[port] = nbr * stride + back
                router.credit_to[port] = nbr * stride + back
        # NI -> router goes to the local port's key; ejected flits and the
        # credits of the NI's injection buffers go to the NI's key.
        for node, ni in enumerate(self.interfaces):
            rid = topo.router_of(node)
            local = topo.local_port(node)
            ni.core = core
            ni.router_key = rid * stride + local
            router = self.routers[rid]
            router.flit_to[local] = router.credit_to[local] = \
                core.ni_base + node
        core.attach(self.routers, self.interfaces)

    # ------------------------------------------------------------------
    def interface(self, node: int) -> NetworkInterface:
        return self.interfaces[node]

    def set_deliver(self, node: int, callback: Callable[[Message, int], None]) -> None:
        self.interfaces[node].deliver = callback

    def inject(self, msg: Message, cycle: int) -> None:
        """Convenience injection entry point (used by traffic generators)."""
        self.interfaces[msg.src].enqueue(msg, cycle)

    def register(self, sim: "Simulator") -> None:
        """Register the router core, the NoC's one kernel component,
        with ``sim``.  Manual drivers call ``core.tick(cycle)`` instead.

        In a shard (:mod:`repro.sim.shard`) the core clocks the local
        routers and NIs alone: the barrier moves every calendar entry
        bound for a foreign router out before it is due, and a foreign NI
        is never handed a message or a calendar entry.
        """
        sim.add(self.core)

    def msgs_delivered(self) -> int:
        """Messages delivered so far, without flushing: the flushed
        ``noc.msgs_delivered`` count plus what the router core still
        batches.  Cheap enough for a per-cycle hook (the progress
        watchdog's probe), which ``Stats.counter`` - a flush of every
        batcher - is not."""
        return (self.stats.counters.get("noc.msgs_delivered", 0)
                + self.core._c_delivered_msgs)

    def in_flight(self) -> int:
        """Flits/messages anywhere in the network or NI queues."""
        core = self.core
        total = len(core.grants)
        for bucket in core.flits.values():
            total += len(bucket)
        for router in self.routers:
            total += router.buffered_flits()
        for queue in self.policy.waits.values():
            total += len(queue)
        for ni in self.interfaces:
            total += ni.pending_work()
        return total

    def channel_label(self, key: int) -> str:
        """Name of the input port or NI a calendar key delivers to."""
        if key >= self.core.ni_base:
            return f"ni{key - self.core.ni_base}.in"
        router, port = divmod(key, self.core.stride)
        return f"router{router}.in.{self.topo.port_name(port)}"

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
        """Raw circuit-store occupancy (may include expired timed entries)."""
        return sum(len(table) for table in self.policy.tables if table)

    def live_circuit_entries(self, cycle: int) -> int:
        """Circuit entries still live at ``cycle``.  Read-only: expired
        timed entries are counted out, not purged."""
        return sum(entry.live(cycle) for table in self.policy.tables if table
                   for entry in table.values())
