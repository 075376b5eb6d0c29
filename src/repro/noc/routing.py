"""Routing functions and their compiled next-hop tables.

Requests route XY and replies route YX (section 4.1) so that a request
and its reply traverse exactly the same set of routers, letting the
request reserve the reply's circuit hop by hop.  Both are DOR and each
owns a virtual network, so the combination is deadlock-free.

:class:`RoutingFunction` is the abstraction behind that: its contract is
the paper's invariant (section 4.2 "any deterministic routing") - for
every (src, dst) pair it yields one deterministic path, and the paired
reply function's path visits the same routers in reverse order.  The
concrete implementation is :class:`DimensionOrderRouting`, parameterised
by topology and dimension order; on a torus it picks the shorter way
round each dimension, breaking exact ties toward +direction from the
lower coordinate so the reversed route retraces the same routers.

Routing is a pure function of the (static) topology, so the whole
function space is compiled once into dense next-hop tables
(``table[router][dest_node] -> port``) that the router indexes in its
route-compute stage.  Table entries are plain ints following
the topology's port convention (ports >= ``local_base`` eject).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.noc.topology import Port, Topology

# Axis step -> port, per the mesh embedding (EAST = +x, SOUTH = +y).
_X_PORTS = {1: int(Port.EAST), -1: int(Port.WEST)}
_Y_PORTS = {1: int(Port.SOUTH), -1: int(Port.NORTH)}


def _axis_dir(here: int, dest: int, size: int, wraps: bool) -> int:
    """Step direction (+1/-1/0) along one dimension.

    Without wraparound this is the sign of the difference.  With
    wraparound the shorter way round wins; an exact tie (``size/2``
    apart) goes +direction iff ``here < dest``, which makes the
    reverse route (where the tie reads the opposite way) retrace the
    identical routers - the property the circuit mechanism needs.
    """
    if here == dest:
        return 0
    if not wraps:
        return 1 if here < dest else -1
    fwd = (dest - here) % size
    back = (here - dest) % size
    if fwd < back:
        return 1
    if back < fwd:
        return -1
    return 1 if here < dest else -1


class RoutingFunction:
    """A deterministic next-hop function over one topology.

    Contract (the paper's invariant): ``next_port(router, dest)`` is a
    pure function of its arguments; following it from any router reaches
    ``dest``'s router in at most ``topology.diameter`` hops without
    revisiting a router; and the paired reply function (the opposite
    dimension order here) routes ``dest -> src`` through the same
    routers in reverse.  Implementations return plain int ports; at the
    destination router they return the destination node's local port.
    """

    def __init__(self, topo: Topology) -> None:
        self.topo = topo

    def next_port(self, router: int, dest: int) -> int:
        """Output port at ``router`` for a packet headed to node ``dest``."""
        raise NotImplementedError


class DimensionOrderRouting(RoutingFunction):
    """DOR over the topology's grid embedding (XY when ``xy`` else YX)."""

    def __init__(self, topo: Topology, xy: bool) -> None:
        super().__init__(topo)
        self.xy = xy

    def next_port(self, router: int, dest: int) -> int:
        topo = self.topo
        dest_router = topo.router_of(dest)
        if router == dest_router:
            return int(topo.local_port(dest))
        width, height = topo.grid_shape
        hx, hy = topo.coords(router)
        dx, dy = topo.coords(dest_router)
        if self.xy:
            step = _axis_dir(hx, dx, width, topo.wraps)
            if step:
                return _X_PORTS[step]
            return _Y_PORTS[_axis_dir(hy, dy, height, topo.wraps)]
        step = _axis_dir(hy, dy, height, topo.wraps)
        if step:
            return _Y_PORTS[step]
        return _X_PORTS[_axis_dir(hx, dx, width, topo.wraps)]


def route_xy(mesh: Topology, here: int, dest: int) -> Port:
    """Next output port under XY DOR (x first, then y).

    Compatibility wrapper over :class:`DimensionOrderRouting` for the
    mesh-family topologies whose ports all fit the :class:`Port` enum.
    """
    return Port(DimensionOrderRouting(mesh, True).next_port(here, dest))


def route_yx(mesh: Topology, here: int, dest: int) -> Port:
    """Next output port under YX DOR (y first, then x)."""
    return Port(DimensionOrderRouting(mesh, False).next_port(here, dest))


def route_for_vn(mesh: Topology, vn: int, here: int, dest: int,
                 request_xy: bool = True) -> int:
    """Route by virtual network: requests and replies use opposite DOR.

    The default orientation is the paper's (requests XY, replies YX); the
    mechanism works with either assignment as long as the two VNs use
    opposite dimension orders, so a request and its reply traverse the
    same routers (section 4.2: "any deterministic routing").  ``here``
    is a router id; the return value is a plain int port.
    """
    req_table, rep_table = route_tables(mesh, request_xy)
    table = req_table if vn == 0 else rep_table
    return table[here][dest]


def build_route_table(mesh: Topology, xy: bool) -> Tuple[Tuple[int, ...], ...]:
    """Dense DOR next-hop table: ``table[router][dest_node] -> port``.

    Routing is a pure function of the (static) topology, so the whole
    function space is enumerable once at construction; the router's hot
    route-compute stage then degenerates to one indexed load.
    """
    fn = DimensionOrderRouting(mesh, xy)
    return tuple(
        tuple(int(fn.next_port(here, dest)) for dest in range(mesh.n_nodes))
        for here in range(mesh.n_routers)
    )


def route_tables(mesh: Topology, request_xy: bool = True
                 ) -> Tuple[Tuple[Tuple[int, ...], ...],
                            Tuple[Tuple[int, ...], ...]]:
    """``(request table, reply table)`` for a topology, cached on it.

    The two tables are the XY and YX tables assigned per the DOR
    orientation (``request_xy``), exactly as :func:`route_for_vn` picks
    them.  Tables are memoised on the topology object so every router of
    a network shares one pair.
    """
    cache = getattr(mesh, "_route_table_cache", None)
    if cache is None:
        cache = {}
        mesh._route_table_cache = cache
    xy = cache.get(True)
    if xy is None:
        xy = cache[True] = build_route_table(mesh, True)
    yx = cache.get(False)
    if yx is None:
        yx = cache[False] = build_route_table(mesh, False)
    return (xy, yx) if request_xy else (yx, xy)


def path_routers(mesh: Topology, vn: int, src: int, dest: int,
                 request_xy: bool = True) -> List[int]:
    """Ordered list of routers a message traverses, endpoints included.

    ``src``/``dest`` are node ids; the path runs from ``src``'s router
    to ``dest``'s router (for router == node topologies these coincide
    with the nodes themselves).
    """
    here = mesh.router_of(src)
    last = mesh.router_of(dest)
    local_base = mesh.local_base
    path = [here]
    while here != last:
        port = route_for_vn(mesh, vn, here, dest, request_xy)
        if port >= local_base:  # pragma: no cover - contract violation
            raise AssertionError(
                f"route ejects at router {here} before reaching node {dest}")
        here = mesh.neighbor(here, port)
        path.append(here)
    return path
