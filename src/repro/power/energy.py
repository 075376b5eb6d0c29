"""Analytical network energy model (DSENT substitute).

Network energy = dynamic energy (per-event costs multiplied by the event
counters the NoC accumulates while simulating) + static leakage
(proportional to router/link area and elapsed cycles).  The per-variant
differences therefore come from three real effects, exactly as in the
paper's Fig. 8:

* circuit flits skip buffer reads/writes and allocator activity,
* eliminated acknowledgements remove their flits entirely,
* execution-time changes scale the leakage term,
* and the per-variant router area scales leakage per cycle
  (fragmented's extra VC costs it the energy win).

Event energies are in femtojoule-scale arbitrary units chosen to match
DSENT-like proportions for a 16-byte-flit 32 nm router; only relative
energies (Fig. 8 is normalised to the baseline) are meaningful.
"""

from __future__ import annotations

from typing import Dict

from repro._record import record
from repro.noc.topology import build_topology
from repro.power.area import router_area
from repro.sim.config import SystemConfig
from repro.sim.stats import Stats

#: Dynamic energy per event.
E_BUFFER_WRITE = 0.70
E_BUFFER_READ = 0.60
E_XBAR = 1.00
E_LINK_FLIT = 1.20
E_ROUTE = 0.05
E_VA = 0.12
E_SA = 0.12
E_CREDIT = 0.05
E_TABLE_OP = 0.06
E_UNDO_HOP = 0.05

#: Static leakage per area unit per cycle (routers).
LEAK_PER_AREA_CYCLE = 1.9e-4
#: Static leakage per link per cycle (links are routed over logic and do
#: not count toward area, but they do leak drivers).
LEAK_PER_LINK_CYCLE = 0.02


@record(frozen=True)
class NetworkEnergyModel:
    """Energy breakdown of one run."""

    dynamic: float
    static: float
    cycles: int

    @property
    def total(self) -> float:
        return self.dynamic + self.static

    def as_dict(self) -> Dict[str, float]:
        return {"dynamic": self.dynamic, "static": self.static,
                "total": self.total, "cycles": float(self.cycles)}


def _dynamic_energy(stats: Stats) -> float:
    stats.flush()  # drain batched router/NI counters before reading
    c = stats.counters
    return (
        c.get("noc.buffer_writes", 0) * E_BUFFER_WRITE
        + c.get("noc.buffer_reads", 0) * E_BUFFER_READ
        + c.get("noc.xbar_traversals", 0) * E_XBAR
        + c.get("noc.link_flits", 0) * E_LINK_FLIT
        + c.get("noc.route_computations", 0) * E_ROUTE
        + c.get("noc.va_grants", 0) * E_VA
        + c.get("noc.sa_grants", 0) * E_SA
        + c.get("noc.credits_sent", 0) * E_CREDIT
        + (c.get("circuit.reservations", 0)
           + c.get("circuit.entries_used", 0)
           + c.get("circuit.entries_undone", 0)) * E_TABLE_OP
        + c.get("circuit.undo_hops", 0) * E_UNDO_HOP
    )


def network_energy(config: SystemConfig, stats: Stats, cycles: int
                   ) -> NetworkEnergyModel:
    """Total network energy of a run of ``cycles`` cycles."""
    topo = build_topology(config)
    n_routers = topo.n_routers
    area = router_area(config, ports=topo.max_radix).total
    n_links = topo.n_links  # router-router links + per-node NI links
    static = cycles * (
        n_routers * area * LEAK_PER_AREA_CYCLE
        + n_links * LEAK_PER_LINK_CYCLE
    )
    return NetworkEnergyModel(_dynamic_energy(stats), static, cycles)
