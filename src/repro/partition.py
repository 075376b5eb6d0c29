"""Partitioned chips (the paper's section-5.5 scalability argument).

The paper argues that future many-core chips will be space-partitioned
(citing Tilera's Multicore Hardwall) and that Reactive Circuits can then
"be used independently inside each partition, eliminating concerns about
the need to scale to a larger number of cores".

This module builds that usage model: the mesh is split into rectangular
partitions, each running its own workload against its own slice of the
shared L2 (addresses are homed inside the owning partition, so request /
reply traffic never crosses a partition boundary - XY/YX dimension-order
routing keeps minimal paths inside any rectangle).  Only memory traffic
leaves a partition, as on real tiled chips where DRAM controllers sit on
the die edge and are shared.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro._record import record
from repro.cpu.trace import AccessStream
from repro.cpu.workloads import WorkloadProfile
from repro.noc.topology import Topology, build_topology
from repro.sim.config import SystemConfig
from repro.sim.rng import DeterministicRng
from repro.system import CmpSystem

#: Address-space stride separating partitions' shared regions (lines).
_PARTITION_SHARED_STRIDE = 1 << 20


@record(frozen=True)
class Partition:
    """A rectangle of the router grid running one workload."""

    workload: WorkloadProfile
    x0: int
    y0: int
    width: int
    height: int

    def nodes(self, topo: Topology) -> List[int]:
        """All nodes of the routers inside the rectangle, row-major."""
        out: List[int] = []
        for y in range(self.y0, self.y0 + self.height):
            for x in range(self.x0, self.x0 + self.width):
                out.extend(topo.nodes_of(topo.router_at(x, y)))
        return out


def quadrants(topo: Topology, workloads: Sequence[WorkloadProfile]
              ) -> List[Partition]:
    """Split a topology's grid into four quadrants running ``workloads``."""
    if len(workloads) != 4:
        raise ValueError("quadrants() needs exactly four workloads")
    width, height = topo.grid_shape
    half_w, half_h = width // 2, height // 2
    if half_w * 2 != width or half_h * 2 != height:
        raise ValueError("router grid must be even-sided for quadrants")
    corners = [(0, 0), (half_w, 0), (0, half_h), (half_w, half_h)]
    return [
        Partition(workload, x, y, half_w, half_h)
        for workload, (x, y) in zip(workloads, corners)
    ]


def build_partitioned_system(config: SystemConfig,
                             partitions: Sequence[Partition]) -> CmpSystem:
    """A CMP whose coherence domains are isolated per partition.

    Every tile must belong to exactly one partition.  Each partition's
    addresses (private regions, its own shared region) are homed on its
    own L2 banks, so all request/reply/forward/invalidate traffic - and
    therefore every reactive circuit - stays inside the partition.
    """
    topo = build_topology(config)
    line = config.cache.line_bytes
    owner_of_node: Dict[int, int] = {}
    for index, part in enumerate(partitions):
        for node in part.nodes(topo):
            if node in owner_of_node:
                raise ValueError(f"node {node} assigned to two partitions")
            owner_of_node[node] = index
    if len(owner_of_node) != topo.n_nodes:
        missing = set(range(topo.n_nodes)) - set(owner_of_node)
        raise ValueError(f"nodes without a partition: {sorted(missing)}")

    rng = DeterministicRng(config.seed)
    part_nodes: List[List[int]] = [p.nodes(topo) for p in partitions]
    streams: List[Optional[AccessStream]] = [None] * topo.n_nodes
    for index, part in enumerate(partitions):
        shared_base = index * _PARTITION_SHARED_STRIDE
        part_rng = rng.stream(f"partition/{index}/{part.workload.name}")
        local = part.workload.streams(len(part_nodes[index]), line, part_rng)
        for stream, node in zip(local, part_nodes[index]):
            # Re-base the stream onto the global core id and the
            # partition's shared-region window.
            rebased = AccessStream(stream.params, node, line,
                                   stream.rng, shared_base_line=shared_base)
            streams[node] = rebased

    #: Home addresses on the banks of the partition that owns them.  The
    #: partition is identified from the address itself: private regions
    #: encode their core (hence partition), shared regions their window.
    def home_of(addr: int) -> int:
        block = addr // line
        part_index = _partition_of_block(block, owner_of_node, streams)
        nodes = part_nodes[part_index]
        return nodes[block % len(nodes)]

    def _partition_of_block(block: int, owners, streams_) -> int:
        from repro.cpu.trace import _COLD_BASE_LINE, _PRIVATE_BASE_LINE, \
            _PRIVATE_SPAN_LINES

        if block >= _COLD_BASE_LINE:
            core = (block - _COLD_BASE_LINE) // _PRIVATE_SPAN_LINES
            return owners[min(core, topo.n_nodes - 1)]
        if block >= _PRIVATE_BASE_LINE:
            core = (block - _PRIVATE_BASE_LINE) // _PRIVATE_SPAN_LINES
            return owners[min(core, topo.n_nodes - 1)]
        return min(block // _PARTITION_SHARED_STRIDE, len(partitions) - 1)

    system = CmpSystem(config, streams=streams, home_of=home_of)
    system.partitions = list(partitions)  # type: ignore[attr-defined]
    system.partition_nodes = part_nodes  # type: ignore[attr-defined]
    return system


def install_crossing_counter(system: CmpSystem) -> None:
    """Count delivered messages whose endpoints sit in different
    partitions (memory traffic excluded).  Call before running; results
    land in ``partition.crossings`` / ``partition.messages``."""
    from repro.coherence.messages import Kind

    owner: Dict[int, int] = {}
    for index, nodes in enumerate(system.partition_nodes):
        for node in nodes:
            owner[node] = index
    memory_kinds = {Kind.MEM_READ, Kind.WB_L2, Kind.MEMORY_DATA,
                    Kind.MEMORY_ACK}
    for ni in system.network.interfaces:
        inner = ni.deliver

        def wrapped(msg, cycle, _inner=inner):
            if msg.kind not in memory_kinds:
                system.stats.bump("partition.messages")
                if owner[msg.src] != owner[msg.dest]:
                    system.stats.bump("partition.crossings")
            _inner(msg, cycle)

        ni.deliver = wrapped


def traffic_crosses_partitions(system: CmpSystem) -> Tuple[int, int]:
    """(cross-partition, total) coherence messages delivered so far."""
    return (system.stats.counter("partition.crossings"),
            system.stats.counter("partition.messages"))


# ---------------------------------------------------------------------------
# Shard geometry for the parallel engine (repro.sim.shard)
#
# Unlike the paper's partitions above, shards do not constrain traffic:
# they split the chip across worker processes and any cross-shard link
# becomes a window-buffered boundary channel.  Any exact cover of the
# topology is therefore *correct*; horizontal router-grid row bands
# minimise the number of boundary links under XY/YX routing and keep the
# geometry trivial to reason about (each shard is a contiguous run of
# rows).  On a torus the wraparound links between the first and last
# band simply become extra boundary channels - boundary_links() derives
# them from the topology adjacency, not from band arithmetic.


def shard_bands(topo: Topology, n_shards: int) -> List[List[int]]:
    """Split ``topo`` into ``n_shards`` horizontal router-row bands.

    Bands are assigned top to bottom; on ragged splits (grid height not
    a multiple of ``n_shards``) the first ``height % n_shards`` bands
    get one extra row, so band heights differ by at most one.  Every
    node lands in exactly one band and every band holds at least one
    full row of routers (all nodes of a router share its band).
    """
    width, height = topo.grid_shape
    if not 1 <= n_shards <= height:
        raise ValueError(
            f"need 1 <= shards <= grid height, got {n_shards} on a "
            f"{width}x{height} {topo.name}"
        )
    base, extra = divmod(height, n_shards)
    bands: List[List[int]] = []
    y = 0
    for index in range(n_shards):
        band_height = base + (1 if index < extra else 0)
        bands.append([node
                      for yy in range(y, y + band_height)
                      for x in range(width)
                      for node in topo.nodes_of(topo.router_at(x, yy))])
        y += band_height
    assert y == height
    return bands


def shard_assignment(topo: Topology, n_shards: int) -> List[int]:
    """``assignment[node] -> shard index`` for the row-band split."""
    assignment = [-1] * topo.n_nodes
    for index, nodes in enumerate(shard_bands(topo, n_shards)):
        for node in nodes:
            if assignment[node] != -1:
                raise ValueError(f"node {node} assigned to two shards")
            assignment[node] = index
    missing = [n for n, s in enumerate(assignment) if s == -1]
    if missing:
        raise ValueError(f"nodes without a shard: {missing}")
    return assignment


def router_shard(topo: Topology, assignment: Sequence[int],
                 router: int) -> int:
    """Shard of ``router`` under a per-node ``assignment``.

    Row-band splits never divide a router's local nodes across shards,
    so the router's shard is its first node's shard.
    """
    return assignment[topo.nodes_of(router)[0]]


def boundary_links(topo: Topology, assignment: Sequence[int]
                   ) -> List[Tuple[int, int, int]]:
    """Directed links ``(router, port, neighbor_router)`` crossing shards.

    The edges are exactly the topology adjacency crossing the cut (on a
    torus that includes the wraparound links), enumerated in a canonical
    order (ascending router, then port value) so every worker process
    derives the identical boundary-channel table from the same
    assignment.  ``assignment`` maps *nodes* to shards; all local nodes
    of a router share its shard.
    """
    edges: List[Tuple[int, int, int]] = []
    for router in range(topo.n_routers):
        shard = router_shard(topo, assignment, router)
        for port, neighbor, _back in topo.neighbors(router):
            if shard != router_shard(topo, assignment, neighbor):
                edges.append((router, port, neighbor))
    return edges
