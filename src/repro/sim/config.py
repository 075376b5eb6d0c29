"""System configuration.

Defaults follow the paper's Tables 2 (CMP) and 4 (baseline NoC) exactly.
The named Reactive Circuits configurations evaluated in the paper are
exposed through :class:`Variant`, each of which expands to an orthogonal
:class:`CircuitConfig` via :func:`variant_config`.
"""

from __future__ import annotations

import enum
from dataclasses import field, replace
from typing import Dict, Tuple

from repro._record import record


class CircuitMode(enum.Enum):
    """How reply circuits are reserved (paper section 4.2 / 4.8)."""

    NONE = "none"  # baseline packet-switched network
    FRAGMENTED = "fragmented"  # partial reservations kept, buffered circuit VCs
    COMPLETE = "complete"  # all-or-nothing reservations, bufferless circuit VC
    IDEAL = "ideal"  # upper bound: every eligible reply rides a circuit


@record(frozen=True)
class CircuitConfig:
    """Reactive-circuit policy knobs (orthogonal axes of section 4)."""

    mode: CircuitMode = CircuitMode.NONE
    #: Max simultaneous circuits stored per input port (paper: 5 complete,
    #: 2 fragmented - the fragmented limit equals the number of circuit VCs).
    max_circuits_per_input: int = 5
    #: Eliminate L1_DATA_ACK when the data reply used a complete circuit.
    no_ack: bool = False
    #: Allow scrounger messages to reuse live circuits (section 4.5).
    reuse: bool = False
    #: Timed reservations (section 4.7): reserve only the estimated slot.
    timed: bool = False
    #: Extra reserved cycles per path hop (Slack_ variants).
    slack_per_hop: int = 0
    #: Try shifting a conflicting slot later within the slack (SlackDelay_).
    allow_delay: bool = False
    #: Reserve an exact-length slot 'postpone_per_hop' cycles/hop later and
    #: make the reply wait for it (Postponed_ variants).
    postponed: bool = False
    postpone_per_hop: int = 0
    #: Ablation of section 4.4: undo circuits when the L2 misses (the paper
    #: measured keep-built to be better, so the default is False).
    undo_on_l2_miss: bool = False

    def __post_init__(self) -> None:
        if self.mode is CircuitMode.NONE:
            if self.no_ack or self.reuse or self.timed:
                raise ValueError("baseline network cannot enable circuit options")
        if self.timed and self.mode is not CircuitMode.COMPLETE:
            raise ValueError("timed reservations require complete circuits")
        if self.no_ack and self.mode not in (CircuitMode.COMPLETE, CircuitMode.IDEAL):
            raise ValueError("L1_DATA_ACK elimination requires complete circuits")
        if self.reuse and (self.mode is not CircuitMode.COMPLETE or self.timed):
            raise ValueError("circuit reuse requires non-timed complete circuits")
        if self.allow_delay and self.slack_per_hop <= 0:
            raise ValueError("delayed reservation needs a positive slack")
        if self.postponed and (self.slack_per_hop or self.allow_delay):
            raise ValueError("postponed circuits exclude slack/delay")
        if self.postponed and self.postpone_per_hop <= 0:
            raise ValueError("postponed circuits need postpone_per_hop > 0")

    @property
    def uses_circuits(self) -> bool:
        return self.mode is not CircuitMode.NONE


@record(frozen=True)
class NocConfig:
    """Baseline NoC per the paper's Table 4."""

    #: Virtual channels per virtual network: (requests VN, replies VN).
    #: Fragmented circuits grow the reply VN to 3 VCs (section 4.2).
    vcs_per_vn: Tuple[int, int] = (2, 2)
    buffer_depth_flits: int = 5
    flit_bytes: int = 16
    link_latency: int = 1
    #: Router pipeline depth: RC+buffer write, VA, SA, ST.
    router_stages: int = 4
    #: DOR orientation: True = requests XY / replies YX (the paper's
    #: choice); False swaps them.  Either works - section 4.2 only needs
    #: the two VNs to use opposite dimension orders.
    request_xy: bool = True
    #: Network topology: "mesh" (default), "torus" or "cmesh".  Unset
    #: (the empty string) defers to ``repro.config`` (``topology``);
    #: :class:`SystemConfig` resolves it eagerly so pickled configs (shard
    #: workers) are independent of the worker's environment.
    topology: str = ""
    #: Per-hop cycles for a packet-switched head flit (4 router + 1 link).
    @property
    def packet_hop_cycles(self) -> int:
        return self.router_stages + self.link_latency

    #: Per-hop cycles for a flit riding a circuit (1 router + 1 link).
    @property
    def circuit_hop_cycles(self) -> int:
        return 1 + self.link_latency


@record(frozen=True)
class CacheConfig:
    """Memory hierarchy per the paper's Table 2."""

    line_bytes: int = 64
    l1_size_bytes: int = 32 * 1024
    l1_assoc: int = 4
    l1_hit_cycles: int = 2
    l2_bank_size_bytes: int = 1024 * 1024
    l2_assoc: int = 16
    l2_hit_cycles: int = 7
    memory_latency_cycles: int = 160
    num_memory_controllers: int = 4

    @property
    def l1_sets(self) -> int:
        return self.l1_size_bytes // (self.line_bytes * self.l1_assoc)

    @property
    def l2_bank_sets(self) -> int:
        return self.l2_bank_size_bytes // (self.line_bytes * self.l2_assoc)


class Variant(enum.Enum):
    """Named configurations evaluated in the paper's section 5."""

    BASELINE = "Baseline"
    FRAGMENTED = "Fragmented"
    COMPLETE = "Complete"
    COMPLETE_NOACK = "Complete_NoAck"
    REUSE = "Reuse"
    REUSE_NOACK = "Reuse_NoAck"
    TIMED_NOACK = "Timed_NoAck"
    SLACK1_NOACK = "Slack1_NoAck"
    SLACK2_NOACK = "Slack2_NoAck"
    SLACK4_NOACK = "Slack4_NoAck"
    SLACKDELAY1_NOACK = "SlackDelay1_NoAck"
    SLACKDELAY2_NOACK = "SlackDelay2_NoAck"
    POSTPONED1_NOACK = "Postponed1_NoAck"
    POSTPONED2_NOACK = "Postponed2_NoAck"
    IDEAL = "Ideal"


_VARIANT_CIRCUITS: Dict[Variant, CircuitConfig] = {
    Variant.BASELINE: CircuitConfig(mode=CircuitMode.NONE),
    Variant.FRAGMENTED: CircuitConfig(
        mode=CircuitMode.FRAGMENTED, max_circuits_per_input=2
    ),
    Variant.COMPLETE: CircuitConfig(mode=CircuitMode.COMPLETE),
    Variant.COMPLETE_NOACK: CircuitConfig(mode=CircuitMode.COMPLETE, no_ack=True),
    Variant.REUSE: CircuitConfig(mode=CircuitMode.COMPLETE, reuse=True),
    Variant.REUSE_NOACK: CircuitConfig(
        mode=CircuitMode.COMPLETE, reuse=True, no_ack=True
    ),
    Variant.TIMED_NOACK: CircuitConfig(
        mode=CircuitMode.COMPLETE, timed=True, no_ack=True
    ),
    Variant.SLACK1_NOACK: CircuitConfig(
        mode=CircuitMode.COMPLETE, timed=True, no_ack=True, slack_per_hop=1
    ),
    Variant.SLACK2_NOACK: CircuitConfig(
        mode=CircuitMode.COMPLETE, timed=True, no_ack=True, slack_per_hop=2
    ),
    Variant.SLACK4_NOACK: CircuitConfig(
        mode=CircuitMode.COMPLETE, timed=True, no_ack=True, slack_per_hop=4
    ),
    Variant.SLACKDELAY1_NOACK: CircuitConfig(
        mode=CircuitMode.COMPLETE,
        timed=True,
        no_ack=True,
        slack_per_hop=1,
        allow_delay=True,
    ),
    Variant.SLACKDELAY2_NOACK: CircuitConfig(
        mode=CircuitMode.COMPLETE,
        timed=True,
        no_ack=True,
        slack_per_hop=2,
        allow_delay=True,
    ),
    Variant.POSTPONED1_NOACK: CircuitConfig(
        mode=CircuitMode.COMPLETE,
        timed=True,
        no_ack=True,
        postponed=True,
        postpone_per_hop=1,
    ),
    Variant.POSTPONED2_NOACK: CircuitConfig(
        mode=CircuitMode.COMPLETE,
        timed=True,
        no_ack=True,
        postponed=True,
        postpone_per_hop=2,
    ),
    Variant.IDEAL: CircuitConfig(mode=CircuitMode.IDEAL, no_ack=True),
}


def variant_config(variant: Variant) -> CircuitConfig:
    """Expand a named paper configuration into its CircuitConfig."""
    return _VARIANT_CIRCUITS[variant]


@record(frozen=True)
class SystemConfig:
    """Complete description of a simulated CMP."""

    n_cores: int = 16
    seed: int = 1
    noc: NocConfig = field(default_factory=NocConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    circuit: CircuitConfig = field(default_factory=CircuitConfig)

    def __post_init__(self) -> None:
        # Resolve the topology eagerly (consulting repro.config once)
        # so pickled configs reaching shard workers do not depend on the
        # receiving process's environment.  Imported here: repro.noc
        # pulls in modules that import this one at load time.
        from repro.noc.topology import resolve_topology, topology_grid_side

        topology = resolve_topology(self.noc.topology)
        if topology != self.noc.topology:
            object.__setattr__(
                self, "noc", replace(self.noc, topology=topology))
        topology_grid_side(topology, self.n_cores)  # n_cores must tile it
        if self.cache.num_memory_controllers > self.n_cores:
            raise ValueError("more memory controllers than tiles")
        # Fragmented circuits grow the reply VN to 3 VCs; enforce coherence
        # between the two sub-configs here so callers cannot desynchronise.
        expected = 3 if self.circuit.mode is CircuitMode.FRAGMENTED else 2
        if self.noc.vcs_per_vn[1] != expected:
            object.__setattr__(
                self, "noc", replace(self.noc, vcs_per_vn=(self.noc.vcs_per_vn[0], expected))
            )

    @property
    def mesh_side(self) -> int:
        """Router-grid side (the name predates non-mesh topologies)."""
        from repro.noc.topology import topology_grid_side

        return topology_grid_side(self.noc.topology, self.n_cores)

    def with_variant(self, variant: Variant) -> "SystemConfig":
        """Return a copy configured for the given paper variant."""
        return replace(self, circuit=variant_config(variant))

    def with_circuit(self, circuit: CircuitConfig) -> "SystemConfig":
        return replace(self, circuit=circuit)


def small_test_config(
    n_cores: int = 16,
    variant: Variant = Variant.BASELINE,
    seed: int = 1,
) -> SystemConfig:
    """A scaled-down config for fast unit/integration tests.

    Shrinks caches so misses and evictions occur within short runs while
    keeping the NoC parameters identical to the paper's baseline.
    """
    cache = CacheConfig(
        l1_size_bytes=2 * 1024,
        l2_bank_size_bytes=16 * 1024,
        memory_latency_cycles=60,
    )
    return SystemConfig(
        n_cores=n_cores, seed=seed, cache=cache
    ).with_variant(variant)
