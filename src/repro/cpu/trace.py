"""Synthetic memory reference streams.

The paper drives its CMP with PARSEC/SPLASH-2 parallel applications and a
SPEC CPU2006 multiprogrammed mix under Simics.  Those traces are
proprietary full-system artifacts; we substitute parameterised synthetic
streams that reproduce the traffic characteristics the NoC actually sees.

Each core's private accesses draw from three regions:

* **hot** - small enough to live in the L1 (hits; the IPC-1 common case),
* **mid** - larger than the L1 but L2-resident (the steady L1-miss stream
  that generates the request/reply/ack traffic of Table 1),
* **cold** - a monotonically advancing pointer into untouched memory (the
  steady trickle of L2 misses, memory traffic and L2 writebacks).

plus a globally **shared** region with skewed line popularity whose writes
produce invalidations, exclusive ownership and L1-to-L1 forwards.

The sequence drawn by a stream depends only on (seed, core, parameters) -
never on timing - so every Reactive Circuits variant executes the same
instruction stream and execution times are directly comparable.

The per-region footprints (hot_lines / mid_lines / shared_lines) let
the system functionally pre-warm caches and directory, standing in for
the paper's 200M-cycle warmup, which pure-Python simulation cannot afford.
"""

from __future__ import annotations

import math
from random import Random
from typing import Tuple

from repro._record import record


@record(frozen=True)
class StreamParams:
    """Knobs of one core's synthetic access stream."""

    #: Fraction of instructions that access memory.
    mem_ratio: float = 0.3
    #: Fraction of memory accesses that are stores (private regions).
    write_frac: float = 0.25
    #: Fraction of accesses targeting the shared region (0 for SPEC mixes).
    shared_frac: float = 0.0
    #: Fraction of private accesses hitting the L2-resident mid region.
    mid_frac: float = 0.06
    #: Fraction of private accesses streaming into untouched (cold) memory.
    cold_frac: float = 0.0008
    #: Per-core hot set (lines) - sized to stay L1-resident.
    hot_lines: int = 128
    #: Per-core mid region (lines) - L1-evicting, L2-resident.
    mid_lines: int = 4096
    #: Shared hot region (lines) common to every core.
    shared_lines: int = 512
    #: Fraction of shared accesses that are stores (contention knob).
    shared_write_frac: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 < self.mem_ratio <= 1.0:
            raise ValueError("mem_ratio must be in (0, 1]")
        for name in ("write_frac", "shared_frac", "mid_frac", "cold_frac",
                     "shared_write_frac"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.mid_frac + self.cold_frac > 1.0:
            raise ValueError("mid_frac + cold_frac must not exceed 1")
        if min(self.hot_lines, self.mid_lines, self.shared_lines) < 1:
            raise ValueError("region sizes must be positive")


#: Shared region occupies low addresses; private regions live above it.
_PRIVATE_BASE_LINE = 1 << 24
#: Cold (never-revisited) space starts far above all warm regions.
_COLD_BASE_LINE = 1 << 32
#: Gap between consecutive cores' private regions.  The extra odd prime
#: staggers each core's region across the L2 banks' sets: power-of-two
#: spacing would alias every core's footprint onto the same sets and
#: thrash the (inclusive) L2.
_PRIVATE_SPAN_LINES = (1 << 20) + 8209


class AccessStream:
    """Deterministic per-core generator of (gap, is_write, address)."""

    def __init__(self, params: StreamParams, core: int, line_bytes: int,
                 rng: Random, shared_base_line: int = 0) -> None:
        self.params = params
        self.core = core
        self.line_bytes = line_bytes
        self.rng = rng
        #: First line of the shared region (per-partition on split chips).
        self.shared_base_line = shared_base_line
        base = _PRIVATE_BASE_LINE + core * _PRIVATE_SPAN_LINES
        self._hot_base = base
        self._mid_base = base + params.hot_lines
        self._cold_next = _COLD_BASE_LINE + core * _PRIVATE_SPAN_LINES
        self._gap_p = params.mem_ratio

    def next_access(self) -> Tuple[int, bool, int]:
        """(non-memory gap, is_write, byte address) of the next access."""
        rng = self.rng
        p = self.params
        gap = self._geometric(rng, self._gap_p)
        roll = rng.random()
        if p.shared_frac and roll < p.shared_frac:
            line = self.shared_base_line + self._zipfish(rng, p.shared_lines)
            is_write = rng.random() < p.shared_write_frac
            return gap, is_write, line * self.line_bytes
        draw = rng.random()
        if draw < p.cold_frac:
            line = self._cold_next
            self._cold_next += 1
        elif draw < p.cold_frac + p.mid_frac:
            line = self._mid_base + rng.randrange(p.mid_lines)
        else:
            line = self._hot_base + rng.randrange(p.hot_lines)
        is_write = rng.random() < p.write_frac
        return gap, is_write, line * self.line_bytes

    # ------------------------------------------------------------------
    # Functional warmup support.
    # ------------------------------------------------------------------
    def _line_addrs(self, first_line: int, n_lines: int) -> range:
        return range(first_line * self.line_bytes,
                     (first_line + n_lines) * self.line_bytes,
                     self.line_bytes)

    def hot_lines(self) -> range:
        """Byte addresses of the L1-resident hot set."""
        return self._line_addrs(self._hot_base, self.params.hot_lines)

    def mid_lines(self) -> range:
        """Byte addresses of the L2-resident mid region."""
        return self._line_addrs(self._mid_base, self.params.mid_lines)

    def shared_lines(self) -> range:
        """Byte addresses of the shared hot region."""
        return self._line_addrs(self.shared_base_line,
                                self.params.shared_lines)

    @staticmethod
    def _geometric(rng: Random, p: float) -> int:
        """Geometric gap >= 0 with success probability ``p`` per instr."""
        if p >= 1.0:
            return 0
        u = rng.random()
        return int(math.log(1.0 - u) / math.log(1.0 - p))

    @staticmethod
    def _zipfish(rng: Random, n: int) -> int:
        """Skewed choice over [0, n): square-law bias toward low lines.

        Cheap stand-in for a Zipf distribution - hot shared lines see most
        of the contention, like locks and frequently-read shared data.
        """
        return int(n * rng.random() ** 1.25)
