"""Contracts of the Topology / RoutingFunction abstraction.

Every registered topology (mesh, torus, concentrated mesh) must honour
the same protocol the routers and the sharding layer build on: port
symmetry and neighbor reciprocity, deterministic routes that reach the
destination within the diameter without revisiting a router, and the
paper's invariant - the reply path visits exactly the request path's
routers in reverse.  Alongside the routing contract this file pins the
generalized partition helpers (exactly-once node cover, boundary edges
== the adjacency crossing cut), the typed configuration validation
(unknown names raise :class:`ConfigError` naming the valid choices and
the offending source), and the memory-controller placement, which must
stay byte-identical to the historical square-mesh algorithm.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.routing import (
    DimensionOrderRouting,
    path_routers,
    route_tables,
)
from repro.noc.topology import (
    CONCENTRATION,
    TOPOLOGY_CHOICES,
    CMesh,
    ConfigError,
    Mesh,
    Port,
    Torus,
    build_topology,
    make_topology,
    memory_controller_nodes,
    resolve_topology,
    topology_grid_side,
)
from repro.partition import (
    boundary_links,
    router_shard,
    shard_assignment,
    shard_bands,
)
from repro.sim.config import NocConfig, SystemConfig
from repro.validate import check_topology

#: Every topology at both paper chip sizes (all three support 16 and 64).
CASES = [(name, cores) for name in TOPOLOGY_CHOICES for cores in (16, 64)]
CASE_IDS = [f"{name}-{cores}" for name, cores in CASES]

_TOPOS = {}


def topo_for(name, cores):
    key = (name, cores)
    if key not in _TOPOS:
        _TOPOS[key] = make_topology(name, cores)
    return _TOPOS[key]


# ---------------------------------------------------------------------------
# Static protocol contracts: ports, neighbors, embedding.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name,cores", CASES, ids=CASE_IDS)
def test_neighbor_reciprocity_and_port_symmetry(name, cores):
    """neighbors() triples are mutually consistent: the opposite port on
    the neighbor routes straight back, and opposite() is an involution."""
    topo = topo_for(name, cores)
    for router in range(topo.n_routers):
        triples = topo.neighbors(router)
        ports = [port for port, _, _ in triples]
        assert ports == sorted(ports), "network ports must come in order"
        for port, neighbor, back in triples:
            assert 0 <= port < topo.local_base
            assert 0 <= back < topo.local_base
            assert topo.opposite(port) == back
            assert topo.opposite(back) == port
            assert topo.neighbor(router, port) == neighbor
            assert topo.neighbor(neighbor, back) == router
            assert topo.has_neighbor(router, port)


@pytest.mark.parametrize("name,cores", CASES, ids=CASE_IDS)
def test_node_embedding(name, cores):
    """Every node maps into exactly one router at a distinct local port."""
    topo = topo_for(name, cores)
    assert topo.n_nodes == cores
    seen = set()
    for node in range(topo.n_nodes):
        router = topo.router_of(node)
        port = topo.local_port(node)
        assert node in topo.nodes_of(router)
        assert topo.local_base <= port < topo.max_radix
        assert (router, port) not in seen
        seen.add((router, port))
    covered = sorted(
        node for r in range(topo.n_routers) for node in topo.nodes_of(r)
    )
    assert covered == list(range(topo.n_nodes))


@pytest.mark.parametrize("name,cores", CASES, ids=CASE_IDS)
def test_grid_embedding_round_trips(name, cores):
    topo = topo_for(name, cores)
    width, height = topo.grid_shape
    assert width * height == topo.n_routers
    for router in range(topo.n_routers):
        x, y = topo.coords(router)
        assert 0 <= x < width and 0 <= y < height
        assert topo.router_at(x, y) == router


def test_cmesh_radix_and_local_ports():
    """The concentrated mesh is the variant that kills the 5-port
    assumption: four local ports per router, radix 8."""
    topo = topo_for("cmesh", 16)
    assert isinstance(topo, CMesh)
    assert topo.n_routers == 4 and topo.n_nodes == 16
    assert topo.local_base == 4 and topo.max_radix == 4 + CONCENTRATION
    assert topo.nodes_of(0) == [0, 1, 2, 3]
    assert [topo.local_port(n) for n in range(4)] == [4, 5, 6, 7]
    assert topo.port_name(4) == "LOCAL0"
    assert topo.port_name(7) == "LOCAL3"


def test_torus_wraparound_links_and_diameter():
    topo = topo_for("torus", 16)
    assert isinstance(topo, Torus)
    assert topo.wraps
    # Router 0 has all four network neighbors (wrap west and north).
    assert [port for port, _, _ in topo.neighbors(0)] == [
        int(Port.NORTH), int(Port.SOUTH), int(Port.EAST), int(Port.WEST)
    ]
    assert topo.neighbor(0, int(Port.WEST)) == 3
    assert topo.neighbor(0, int(Port.NORTH)) == 12
    assert topo.diameter == 4  # 2 * (4 // 2), vs. 6 on the 4x4 mesh
    assert topo_for("mesh", 16).diameter == 6


# ---------------------------------------------------------------------------
# Routing contract: reach, bound, no cycles, same-routers reply.
# ---------------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(
    case=st.sampled_from(CASES),
    src=st.integers(min_value=0),
    dst=st.integers(min_value=0),
)
def test_request_path_reaches_destination_within_diameter(case, src, dst):
    topo = topo_for(*case)
    src %= topo.n_nodes
    dst %= topo.n_nodes
    path = path_routers(topo, 0, src, dst)
    assert path[0] == topo.router_of(src)
    assert path[-1] == topo.router_of(dst)
    assert len(path) - 1 <= topo.diameter
    assert len(set(path)) == len(path), "routing cycle: router revisited"


@settings(max_examples=120, deadline=None)
@given(
    case=st.sampled_from(CASES),
    src=st.integers(min_value=0),
    dst=st.integers(min_value=0),
)
def test_reply_path_is_reversed_request_path(case, src, dst):
    """The paper's invariant, for every topology: the reply (VN1)
    retraces exactly the request's routers in reverse order."""
    topo = topo_for(*case)
    src %= topo.n_nodes
    dst %= topo.n_nodes
    request = path_routers(topo, 0, src, dst)
    reply = path_routers(topo, 1, dst, src)
    assert reply == list(reversed(request))


@pytest.mark.parametrize("name,cores", CASES, ids=CASE_IDS)
def test_route_tables_match_routing_function(name, cores):
    """The dense tables the router consumes are exactly the
    RoutingFunction, entry for entry (eject at the destination router)."""
    topo = topo_for(name, cores)
    req_table, rep_table = route_tables(topo)
    xy = DimensionOrderRouting(topo, xy=True)
    yx = DimensionOrderRouting(topo, xy=False)
    for router in range(topo.n_routers):
        for dest in range(topo.n_nodes):
            assert req_table[router][dest] == xy.next_port(router, dest)
            assert rep_table[router][dest] == yx.next_port(router, dest)
            if topo.router_of(dest) == router:
                assert req_table[router][dest] == topo.local_port(dest)
            else:
                assert req_table[router][dest] < topo.local_base


@pytest.mark.parametrize("name", TOPOLOGY_CHOICES)
def test_static_self_check_is_clean(name):
    """The `repro check --topology` machinery agrees with the above."""
    report = check_topology(name, n_cores=16)
    assert report.ok, report.problems
    assert report.checks_run > 0


# ---------------------------------------------------------------------------
# Partition helpers, generalized to any topology.
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_shard_bands_cover_every_node_exactly_once(case, data):
    topo = topo_for(*case)
    _, height = topo.grid_shape
    n_shards = data.draw(st.integers(min_value=1, max_value=height))
    bands = shard_bands(topo, n_shards)
    assert len(bands) == n_shards
    flat = [node for band in bands for node in band]
    assert sorted(flat) == list(range(topo.n_nodes))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_boundary_links_equal_adjacency_crossing_cut(case, data):
    """boundary_links must be exactly the edges of the topology adjacency
    whose endpoints land in different shards - including torus wrap links."""
    topo = topo_for(*case)
    _, height = topo.grid_shape
    n_shards = data.draw(st.integers(min_value=1, max_value=height))
    assignment = shard_assignment(topo, n_shards)
    expected = [
        (router, port, neighbor)
        for router in range(topo.n_routers)
        for port, neighbor, _back in topo.neighbors(router)
        if router_shard(topo, assignment, router)
        != router_shard(topo, assignment, neighbor)
    ]
    assert boundary_links(topo, assignment) == expected


def test_torus_boundary_includes_wraparound_cut():
    """With >1 shard on a torus, the top and bottom row bands also touch
    through the wraparound links; the cut must include them."""
    topo = topo_for("torus", 16)
    assignment = shard_assignment(topo, 2)
    edges = boundary_links(topo, assignment)
    wrap = [(r, p, n) for r, p, n in edges
            if abs(topo.coords(r)[1] - topo.coords(n)[1]) > 1]
    assert wrap, "expected wraparound links in the torus shard cut"
    mesh = topo_for("mesh", 16)
    mesh_edges = boundary_links(mesh, shard_assignment(mesh, 2))
    assert len(edges) == len(mesh_edges) + len(wrap)


# ---------------------------------------------------------------------------
# Typed configuration validation.
# ---------------------------------------------------------------------------
def test_unknown_topology_name_raises_config_error():
    with pytest.raises(ConfigError) as err:
        resolve_topology("ring")
    message = str(err.value)
    assert "config.noc.topology" in message
    for choice in TOPOLOGY_CHOICES:
        assert choice in message


def test_malformed_env_topology_raises_config_error(monkeypatch):
    monkeypatch.setenv("REPRO_TOPOLOGY", "hypercube")
    with pytest.raises(ConfigError) as err:
        resolve_topology("")
    message = str(err.value)
    assert "REPRO_TOPOLOGY" in message
    for choice in TOPOLOGY_CHOICES:
        assert choice in message


def test_env_topology_resolves_and_explicit_config_wins(monkeypatch):
    monkeypatch.setenv("REPRO_TOPOLOGY", "torus")
    assert resolve_topology("") == "torus"
    assert resolve_topology("cmesh") == "cmesh"
    cfg = SystemConfig(n_cores=16)
    assert cfg.noc.topology == "torus"  # resolved eagerly at construction
    monkeypatch.delenv("REPRO_TOPOLOGY")
    assert resolve_topology("") == "mesh"


def test_unknown_topology_in_system_config_raises():
    with pytest.raises(ConfigError):
        SystemConfig(n_cores=16, noc=NocConfig(topology="ring"))


def test_cmesh_core_count_validation():
    with pytest.raises(ConfigError, match="cmesh"):
        topology_grid_side("cmesh", 17)
    with pytest.raises(ConfigError, match="cmesh"):
        topology_grid_side("cmesh", 20)  # 4 * 5, 5 is not a square
    assert topology_grid_side("cmesh", 16) == 2
    assert topology_grid_side("cmesh", 64) == 4
    with pytest.raises(ValueError):
        topology_grid_side("mesh", 17)


def test_build_topology_follows_config():
    cfg = SystemConfig(n_cores=16, noc=NocConfig(topology="torus"))
    topo = build_topology(cfg)
    assert isinstance(topo, Torus) and topo.n_nodes == 16
    assert type(build_topology(SystemConfig(n_cores=16))) is Mesh


# ---------------------------------------------------------------------------
# Memory-controller placement: generic == historical, square meshes.
# ---------------------------------------------------------------------------
def _legacy_mesh_mc_nodes(mesh, count):
    """The pre-abstraction square-mesh literal algorithm, verbatim."""
    side = mesh.side
    mid = side // 2
    preferred = [
        mesh.node_at(mid, 0),
        mesh.node_at(0, mid),
        mesh.node_at(side - 1, mid),
        mesh.node_at(mid, side - 1),
    ]
    if count <= 4:
        picks = []
        for node in preferred:
            if node not in picks:
                picks.append(node)
            if len(picks) == count:
                return picks
    perimeter = list(dict.fromkeys(list(mesh.edge_nodes())))
    step = max(1, len(perimeter) // count)
    picks = [perimeter[(i * step) % len(perimeter)] for i in range(count)]
    return list(dict.fromkeys(picks))[:count]


@pytest.mark.parametrize("side", range(2, 9))
@pytest.mark.parametrize("count", range(1, 9))
def test_mc_placement_matches_legacy_square_mesh(side, count):
    mesh = Mesh(side)
    assert memory_controller_nodes(mesh, count) \
        == _legacy_mesh_mc_nodes(mesh, count)


@pytest.mark.parametrize("name,cores", CASES, ids=CASE_IDS)
def test_mc_placement_valid_on_every_topology(name, cores):
    topo = topo_for(name, cores)
    nodes = memory_controller_nodes(topo, 4)
    assert len(nodes) == len(set(nodes)) == 4
    edge = set(topo.edge_routers())
    for node in nodes:
        assert 0 <= node < topo.n_nodes
        assert topo.router_of(node) in edge
