"""Analytical router area model (DSENT substitute).

The paper evaluates router area with DSENT at 32 nm.  We replace it with a
component-level analytical model whose inputs are exactly the per-variant
structural differences of sections 4.2 and 4.7:

* input buffer SRAM bits (fragmented adds a reply-VN VC; complete removes
  the circuit VC's buffers entirely),
* circuit-information storage (B bit, destination id, block address and
  output port per entry - Fig. 3), in denser flip-flop cells,
* timed reservations add two countdown timers per entry,
* match/build logic scaling with entry count and key width,
* crossbar and allocators, unchanged across variants.

Constants are calibrated so the *baseline proportions* match what the
paper's DSENT results imply (its -19 % figure for one extra VC implies a
strongly buffer-dominated router area); the per-variant deltas then fall
out of the actual bit counts rather than being hard-coded.
"""

from __future__ import annotations

import math
from typing import Dict

from repro._record import record
from repro.noc.topology import build_topology
from repro.sim.config import CircuitMode, SystemConfig

#: Relative cell areas (SRAM bit == 1).
SRAM_BIT_AREA = 1.0
REGISTER_BIT_AREA = 1.8
#: Match/build logic per circuit-table entry, per key bit.
MATCH_LOGIC_PER_KEY_BIT = 0.6
#: Crossbar area per (input x output x datapath bit).
CROSSBAR_FACTOR = 2.0
#: Allocator area: arbiter cells per (requester x resource) pair.
ALLOCATOR_FACTOR = 0.5
ALLOCATOR_PORT_FACTOR = 12.0
#: Comparator logic per timer bit (timed reservations).
TIMER_LOGIC_PER_BIT = 0.3
#: Physical address width assumed for block identifiers.
ADDRESS_BITS = 32


@record(frozen=True)
class RouterAreaModel:
    """Per-component area breakdown of one (5-port) router."""

    buffers: float
    crossbar: float
    allocators: float
    circuit_storage: float
    circuit_logic: float

    @property
    def total(self) -> float:
        return (self.buffers + self.crossbar + self.allocators
                + self.circuit_storage + self.circuit_logic)

    def as_dict(self) -> Dict[str, float]:
        return {
            "buffers": self.buffers,
            "crossbar": self.crossbar,
            "allocators": self.allocators,
            "circuit_storage": self.circuit_storage,
            "circuit_logic": self.circuit_logic,
        }


def _entry_bits(config: SystemConfig) -> int:
    """Bits of one circuit-table entry (Fig. 3): B, destID, block@, outport."""
    dest_bits = max(1, math.ceil(math.log2(config.n_cores)))
    block_bits = ADDRESS_BITS - int(math.log2(config.cache.line_bytes))
    out_bits = 3
    bits = 1 + dest_bits + block_bits + out_bits
    if config.circuit.mode is CircuitMode.FRAGMENTED:
        bits += 2  # reserved circuit-VC index
    return bits


def _timer_bits(config: SystemConfig) -> int:
    """Countdown width covering the common optimistic estimates (4.7).

    Sized for cache-hit turnarounds plus slack; reservations waiting on the
    160-cycle memory latency saturate the counter through a coarse prescale
    and do not widen the per-entry timers.
    """
    hops = build_topology(config).diameter
    horizon = 7 * hops + 8 * config.circuit.slack_per_hop * hops + 64
    return math.ceil(math.log2(horizon))


def router_area(config: SystemConfig, ports: int = 5) -> RouterAreaModel:
    """Area of one router under ``config`` (uniform 5-port worst case)."""
    noc = config.noc
    flit_bits = noc.flit_bytes * 8
    total_vcs = sum(noc.vcs_per_vn)
    # Buffer SRAM: every VC of every port, minus bufferless circuit VCs.
    bufferless = 0
    if config.circuit.mode in (CircuitMode.COMPLETE,):
        bufferless = 1  # the dedicated circuit VC loses its buffers (4.2)
    buffered_vcs = total_vcs - bufferless
    buffers = ports * buffered_vcs * noc.buffer_depth_flits * flit_bits * SRAM_BIT_AREA
    crossbar = ports * ports * flit_bits * CROSSBAR_FACTOR
    allocators = (
        ports * ports * ALLOCATOR_PORT_FACTOR
        + (ports * total_vcs) ** 2 * ALLOCATOR_FACTOR
    )
    storage = 0.0
    logic = 0.0
    if config.circuit.uses_circuits and config.circuit.mode is not CircuitMode.IDEAL:
        entries = ports * config.circuit.max_circuits_per_input
        bits = _entry_bits(config)
        if config.circuit.timed:
            bits += 2 * _timer_bits(config)
        storage = entries * bits * REGISTER_BIT_AREA
        key_bits = _entry_bits(config) - 4  # match on destID + block@
        logic = entries * key_bits * MATCH_LOGIC_PER_KEY_BIT
        if config.circuit.timed:
            # Window comparators on both counters of every entry.
            logic += entries * 2 * _timer_bits(config) * TIMER_LOGIC_PER_BIT
    return RouterAreaModel(buffers, crossbar, allocators, storage, logic)


def area_savings(config: SystemConfig) -> float:
    """Fractional router area saving vs. the paper's 4-VC baseline.

    Positive values mean the variant's router is smaller (Table 6).
    """
    from repro.sim.config import Variant

    base = router_area(config.with_variant(Variant.BASELINE)).total
    this = router_area(config).total
    return (base - this) / base
