"""Pluggable network topologies and port naming.

The paper's circuit mechanism only needs *deterministic routing where a
request and its reply traverse the same routers* (section 4.2), so the
substrate is not tied to one geometry.  :class:`Topology` is the protocol
every topology implements: node/router maps, per-router port lists,
``neighbors()`` adjacency, and coordinate/embedding hints used by the
figures, the shard partitioner, and memory-controller placement.

Three topologies are registered:

* :class:`Mesh` - the paper's square 2-D mesh (router == node).  Node
  ``i`` sits at ``(x, y) = (i % side, i // side)``; EAST increases x,
  SOUTH increases y.
* :class:`Torus` - the mesh plus wraparound links in both dimensions.
  There are no dateline VCs, so a ring can deadlock within one virtual
  network under load: observed on the 8x8 torus, never on the 4x4 (see
  ``docs/architecture.md`` §14).
* :class:`CMesh` - a concentrated mesh with ``CONCENTRATION`` cores per
  router, which makes router radix variable (4 network ports + 4 local
  ports) and node id != router id.

Port convention: network ports are the integers ``0..local_base-1`` and
local (NI) ports are ``local_base..max_radix-1``.  The classic 5-entry
:class:`Port` enum survives as the mesh/torus port set (values 0-4), so
all mesh port arithmetic - claim bitmasks ``1 << port``, arbiter codes
``port << 8``, dense list indexing - is unchanged and bit-identical.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Iterator, List, Tuple

from repro.config import ConfigError, resolve


class Port(enum.IntEnum):
    NORTH = 0
    SOUTH = 1
    EAST = 2
    WEST = 3
    LOCAL = 4


LOCAL = Port.LOCAL

_OPPOSITE = {
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
    Port.LOCAL: Port.LOCAL,
}

_DELTAS: Dict[Port, Tuple[int, int]] = {
    Port.NORTH: (0, -1),
    Port.SOUTH: (0, 1),
    Port.EAST: (1, 0),
    Port.WEST: (-1, 0),
}


def opposite(port: Port) -> Port:
    """The port a neighbouring router uses for the reverse direction."""
    return _OPPOSITE[port]


class Topology:
    """Protocol + shared machinery for all registered topologies.

    Subclasses provide the geometry (``coords``/``router_at``/``neighbor``
    and the node<->router maps); the base class derives everything the
    rest of the stack consumes from those: adjacency lists, port names,
    link counts, diameter, and the edge-embedding used for shard bands
    and memory-controller placement.
    """

    #: Registry name (``config.noc.topology`` value).
    name = "?"
    #: Whether grid axes wrap around (drives DOR direction choice).
    wraps = False

    # Subclasses set in __init__: n_nodes, n_routers, local_base,
    # max_radix, grid_shape.
    n_nodes: int
    n_routers: int
    #: First local (NI) port id; ports below it are network ports.
    local_base: int
    #: Dense per-router list size (max ports of any router).
    max_radix: int
    #: (width, height) of the router grid embedding.
    grid_shape: Tuple[int, int]

    # -- node <-> router embedding --------------------------------------
    def router_of(self, node: int) -> int:
        """Router a node's network interface attaches to."""
        raise NotImplementedError

    def local_port(self, node: int) -> int:
        """The router port ``node``'s NI is wired to (>= local_base)."""
        raise NotImplementedError

    def nodes_of(self, router: int) -> List[int]:
        """Nodes attached to ``router``, in local-port order."""
        raise NotImplementedError

    # -- grid hints ------------------------------------------------------
    def coords(self, router: int) -> Tuple[int, int]:
        """(x, y) of ``router`` in the grid embedding."""
        raise NotImplementedError

    def router_at(self, x: int, y: int) -> int:
        """Router at grid position (x, y)."""
        raise NotImplementedError

    # -- ports -----------------------------------------------------------
    def port_name(self, port: int) -> str:
        """Human-readable port label (stable: used in stat/link keys)."""
        return Port(port).name

    def opposite(self, port: int) -> int:
        """Port the neighbouring router uses for the reverse direction."""
        if port < self.local_base:
            return _OPPOSITE[Port(port)]
        return port

    def router_ports(self, router: int) -> List[int]:
        """All ports of ``router``, network ports first, then local."""
        raise NotImplementedError

    def neighbor(self, router: int, port: int) -> int:
        """Router reached by leaving ``router`` through network ``port``."""
        raise NotImplementedError

    def has_neighbor(self, router: int, port: int) -> bool:
        raise NotImplementedError

    def neighbors(self, router: int) -> List[Tuple[int, int, int]]:
        """``(port, neighbor_router, opposite_port)`` for the network
        ports of ``router``, in port order."""
        return [
            (port, self.neighbor(router, port), self.opposite(port))
            for port in self.router_ports(router)
            if port < self.local_base
        ]

    # -- metrics and embeddings ------------------------------------------
    def distance(self, a: int, b: int) -> int:
        """Router hops between the routers of nodes ``a`` and ``b``."""
        return self.router_distance(self.router_of(a), b)

    def router_distance(self, router: int, node: int) -> int:
        """Router hops from ``router`` to ``node``'s router."""
        raise NotImplementedError

    @property
    def diameter(self) -> int:
        """Maximum router-to-router hop distance."""
        raise NotImplementedError

    @property
    def n_links(self) -> int:
        """Directed link count: router-router links plus the two NI links
        (inject/eject) of every node.  Drives the static-energy model."""
        total = 2 * self.n_nodes
        for router in range(self.n_routers):
            total += len(self.neighbors(router))
        return total

    def edge_routers(self) -> Iterator[int]:
        """Routers on the perimeter of the grid embedding (MC sites).

        A torus has no physical edge; the perimeter of its embedding is
        still the natural place for die-edge memory controllers.
        """
        width, height = self.grid_shape
        for router in range(self.n_routers):
            x, y = self.coords(router)
            if x in (0, width - 1) or y in (0, height - 1):
                yield router

    def central_router(self) -> int:
        """A router near the middle of the embedding (fault targeting)."""
        width, height = self.grid_shape
        return self.router_at(width // 2, height // 2)

    def memory_controller_sites(self, count: int) -> List[int]:
        """Place ``count`` memory controllers spread along the grid edges.

        The paper distributes 4 controllers on the chip edges for both
        16- and 64-node chips; we pick the midpoints of the four sides
        (falling back to evenly spaced perimeter routers for other
        counts).  Returns *node* ids: each picked router contributes its
        first local node.  For router == node topologies this reproduces
        the historical square-mesh placement byte for byte.
        """
        width, height = self.grid_shape
        mid_x, mid_y = width // 2, height // 2
        preferred = [
            self.router_at(mid_x, 0),  # top edge
            self.router_at(0, mid_y),  # left edge
            self.router_at(width - 1, mid_y),  # right edge
            self.router_at(mid_x, height - 1),  # bottom edge
        ]
        picks: List[int] = []
        if count <= 4:
            for router in preferred:
                if router not in picks:
                    picks.append(router)
                if len(picks) == count:
                    return [self.nodes_of(r)[0] for r in picks]
        perimeter = list(dict.fromkeys(self.edge_routers()))
        step = max(1, len(perimeter) // count)
        picks = [perimeter[(i * step) % len(perimeter)] for i in range(count)]
        return [self.nodes_of(r)[0]
                for r in list(dict.fromkeys(picks))[:count]]


class Mesh(Topology):
    """Square 2-D mesh of ``side * side`` nodes (router == node)."""

    name = "mesh"

    def __init__(self, side: int) -> None:
        if side < 1:
            raise ValueError("mesh side must be >= 1")
        self.side = side
        self.n_nodes = side * side
        self.n_routers = self.n_nodes
        self.local_base = int(Port.LOCAL)
        self.max_radix = len(Port)
        self.grid_shape = (side, side)

    # -- node <-> router (identity) --------------------------------------
    def router_of(self, node: int) -> int:
        return node

    def local_port(self, node: int) -> int:
        return Port.LOCAL

    def nodes_of(self, router: int) -> List[int]:
        return [router]

    # -- grid -------------------------------------------------------------
    def coords(self, node: int) -> Tuple[int, int]:
        return node % self.side, node // self.side

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.side and 0 <= y < self.side):
            raise ValueError(f"({x}, {y}) outside {self.side}x{self.side} mesh")
        return y * self.side + x

    def router_at(self, x: int, y: int) -> int:
        return self.node_at(x, y)

    # -- ports -------------------------------------------------------------
    def neighbor(self, node: int, port: Port) -> int:
        """Node reached by leaving ``node`` through ``port`` (not LOCAL)."""
        dx, dy = _DELTAS[Port(port)]
        x, y = self.coords(node)
        return self.node_at(x + dx, y + dy)

    def has_neighbor(self, node: int, port: Port) -> bool:
        if port >= self.local_base:
            return False
        dx, dy = _DELTAS[Port(port)]
        x, y = self.coords(node)
        return 0 <= x + dx < self.side and 0 <= y + dy < self.side

    def router_ports(self, node: int) -> List[Port]:
        """All ports of ``node``'s router, LOCAL included."""
        ports = [p for p in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)
                 if self.has_neighbor(node, p)]
        ports.append(Port.LOCAL)
        return ports

    # -- metrics -----------------------------------------------------------
    def distance(self, a: int, b: int) -> int:
        """Manhattan hop distance between two nodes."""
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        return abs(ax - bx) + abs(ay - by)

    def router_distance(self, router: int, node: int) -> int:
        return self.distance(router, node)

    @property
    def diameter(self) -> int:
        return 2 * (self.side - 1)

    def edge_nodes(self) -> Iterator[int]:
        """Nodes on the perimeter of the mesh (memory controller sites)."""
        return self.edge_routers()


class Torus(Mesh):
    """Square 2-D torus: the mesh plus wraparound links per dimension.

    Every router has all four network ports.  The model has no dateline
    VCs, and the request/reply VN split does not replace them: packets
    of *one* VN still wait on each other's credits all the way round a
    row or column ring, and an 8x8 torus under load closes that cycle
    (Baseline at 120 requests/kcycle/node wedges VN1 round routers
    48..55; pinned by ``tests/test_conformance.py``).  The 4x4 torus has
    never been seen to (its rings are 4 routers of 5-flit buffers).
    docs/architecture.md §14 has the counterexample and the load the
    conformance matrix keeps 64-core torus cells under.
    """

    name = "torus"
    wraps = True

    def neighbor(self, node: int, port: Port) -> int:
        dx, dy = _DELTAS[Port(port)]
        x, y = self.coords(node)
        return ((y + dy) % self.side) * self.side + (x + dx) % self.side

    def has_neighbor(self, node: int, port: Port) -> bool:
        return port < self.local_base

    def router_ports(self, node: int) -> List[Port]:
        return [Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST, Port.LOCAL]

    def distance(self, a: int, b: int) -> int:
        """Wraparound hop distance (per-dimension shortest way round)."""
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        dx = abs(ax - bx)
        dy = abs(ay - by)
        return min(dx, self.side - dx) + min(dy, self.side - dy)

    @property
    def diameter(self) -> int:
        return 2 * (self.side // 2)


#: Cores per CMesh router (the concentration factor c).
CONCENTRATION = 4


class CMesh(Topology):
    """Concentrated mesh: ``CONCENTRATION`` cores share each router.

    Routers form a ``side x side`` grid routed exactly like the mesh;
    each router has the four network ports plus ``CONCENTRATION`` local
    ports (``LOCAL0..LOCAL3``), so the radix is variable per router and
    node ids are distinct from router ids: node ``n`` attaches to router
    ``n // c`` through local port ``local_base + n % c``.
    """

    name = "cmesh"

    def __init__(self, side: int, concentration: int = CONCENTRATION) -> None:
        if side < 1:
            raise ValueError("cmesh side must be >= 1")
        if concentration < 1:
            raise ValueError("cmesh concentration must be >= 1")
        self.side = side
        self.concentration = concentration
        self.n_routers = side * side
        self.n_nodes = self.n_routers * concentration
        self.local_base = 4
        self.max_radix = 4 + concentration
        self.grid_shape = (side, side)

    # -- node <-> router ---------------------------------------------------
    def router_of(self, node: int) -> int:
        return node // self.concentration

    def local_port(self, node: int) -> int:
        return self.local_base + node % self.concentration

    def nodes_of(self, router: int) -> List[int]:
        base = router * self.concentration
        return list(range(base, base + self.concentration))

    # -- grid --------------------------------------------------------------
    def coords(self, router: int) -> Tuple[int, int]:
        return router % self.side, router // self.side

    def router_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.side and 0 <= y < self.side):
            raise ValueError(
                f"({x}, {y}) outside {self.side}x{self.side} cmesh")
        return y * self.side + x

    # -- ports -------------------------------------------------------------
    def port_name(self, port: int) -> str:
        if port < self.local_base:
            return Port(port).name
        return f"LOCAL{port - self.local_base}"

    def neighbor(self, router: int, port: int) -> int:
        dx, dy = _DELTAS[Port(port)]
        x, y = self.coords(router)
        return self.router_at(x + dx, y + dy)

    def has_neighbor(self, router: int, port: int) -> bool:
        if port >= self.local_base:
            return False
        dx, dy = _DELTAS[Port(port)]
        x, y = self.coords(router)
        return 0 <= x + dx < self.side and 0 <= y + dy < self.side

    def router_ports(self, router: int) -> List[int]:
        ports = [int(p) for p in (Port.NORTH, Port.SOUTH, Port.EAST,
                                  Port.WEST)
                 if self.has_neighbor(router, p)]
        ports.extend(range(self.local_base, self.max_radix))
        return ports

    # -- metrics -----------------------------------------------------------
    def router_distance(self, router: int, node: int) -> int:
        ax, ay = self.coords(router)
        bx, by = self.coords(self.router_of(node))
        return abs(ax - bx) + abs(ay - by)

    @property
    def diameter(self) -> int:
        return 2 * (self.side - 1)


# ---------------------------------------------------------------------------
# Registry and construction.

#: Registered topology names, in documentation order.
TOPOLOGY_CHOICES = ("mesh", "torus", "cmesh")

#: Largest chip a configuration may name: a 32x32 mesh, four times the
#: largest chip the tests build (256 cores) and sixteen times the
#: paper's.  Every tile gets a router, caches and a core before the first
#: cycle, so a larger count is a typo that would exhaust memory, not a
#: study.
MAX_CORES = 1024


def resolve_topology(value: str = "") -> str:
    """Validate a topology name; '' defers to REPRO_TOPOLOGY (then mesh).

    Raises :class:`~repro.config.ConfigError` naming the valid choices on
    anything else, so a typo in ``config.noc.topology`` or
    ``REPRO_TOPOLOGY`` fails at configuration time instead of deep inside
    construction.
    """
    return resolve("topology", override=value or None,
                   source="config.noc.topology")


def topology_grid_side(name: str, n_cores: int) -> int:
    """Router-grid side for ``n_cores`` under topology ``name``.

    Raises :class:`~repro.config.ConfigError` when the core count is
    outside ``1..MAX_CORES`` or does not tile the topology (mesh/torus
    need a perfect square; cmesh needs ``CONCENTRATION`` times a perfect
    square).
    """
    if not 1 <= n_cores <= MAX_CORES:
        raise ConfigError(
            "n_cores", "n_cores",
            f"n_cores must be in 1..{MAX_CORES} (MAX_CORES), got {n_cores}")
    if name == "cmesh":
        routers, rem = divmod(n_cores, CONCENTRATION)
        side = math.isqrt(routers)
        if rem or side * side != routers:
            raise ConfigError(
                "n_cores", "n_cores",
                f"cmesh needs n_cores = {CONCENTRATION} * k^2 "
                f"({CONCENTRATION} cores per router on a square router "
                f"grid), got {n_cores}"
            )
        return side
    side = math.isqrt(n_cores)
    if side * side != n_cores:
        raise ConfigError(
            "n_cores", "n_cores",
            f"n_cores must be a perfect square ({name}), got {n_cores}")
    return side


def make_topology(name: str, n_cores: int) -> Topology:
    """Build the named topology for an ``n_cores``-core chip."""
    name = resolve_topology(name)
    side = topology_grid_side(name, n_cores)
    if name == "torus":
        return Torus(side)
    if name == "cmesh":
        return CMesh(side)
    return Mesh(side)


def build_topology(config) -> Topology:
    """Build the topology a :class:`~repro.sim.config.SystemConfig` names."""
    return make_topology(getattr(config.noc, "topology", ""), config.n_cores)


def memory_controller_nodes(topo: Topology, count: int) -> List[int]:
    """Place ``count`` memory controllers spread along the chip edges.

    Thin wrapper over :meth:`Topology.memory_controller_sites`, kept as
    the stable module-level entry point.
    """
    return topo.memory_controller_sites(count)
