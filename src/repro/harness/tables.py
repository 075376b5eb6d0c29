"""Reproduction of the paper's Tables 1, 5 and 6."""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.coherence.messages import Kind, REPLY_KINDS, REQUEST_KINDS
from repro.harness.experiment import RunResult
from repro.harness.figures import _nan_if_failed, cells
from repro.power.area import area_savings
from repro.sim.config import SystemConfig, Variant

#: The paper's Table 1 (64-core averages, % of all network messages).
TABLE1_PAPER = {
    "requests": 47.0,
    Kind.L2_REPLY: 22.6,
    Kind.L1_DATA_ACK: 23.0,
    Kind.L2_WB_ACK: 4.7,
    Kind.L1_INV_ACK: 1.1,
    "MEMORY": 0.9,
    Kind.L1_TO_L1: 0.7,
}

#: The paper's Table 5 (Complete+NoAck, 64 cores).
TABLE5_PAPER = {1: 48.0, 2: 24.0, 3: 7.0, 4: 6.0, 5: 6.0, "failed": 9.0}

#: The paper's Table 6 (% router area savings; negative = larger).
TABLE6_PAPER = {
    ("Fragmented", 16): -19.28,
    ("Fragmented", 64): -18.96,
    ("Complete", 16): 6.21,
    ("Complete", 64): 5.77,
    ("Complete Timed", 16): 3.38,
    ("Complete Timed", 64): 1.09,
}


def _message_counts(results: Iterable[RunResult]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for result in results:
        for key, value in result.counters_with_prefix("msg.count.").items():
            kind = key[len("msg.count."):]
            total[kind] = total.get(kind, 0) + value
    return total


def table1(workloads: List[str], n_cores: int = 64, seed: int = 1
           ) -> Dict[str, float]:
    """Message-type percentages on the baseline network (paper Table 1)."""
    results = list(
        cells(n_cores, [Variant.BASELINE], workloads, seed)[Variant.BASELINE]
        .values())
    counts = _message_counts(results)
    counts.pop(f"{Kind.L1_DATA_ACK}_eliminated", None)  # baseline: none
    total = sum(counts.values())
    if total == 0:
        return {}
    pct = {kind: 100.0 * value / total for kind, value in counts.items()}
    return _nan_if_failed({
        # sorted: a frozenset's order, and so the float sum, varies with
        # the process's string-hash seed
        "requests": sum(pct.get(kind, 0.0) for kind in sorted(REQUEST_KINDS)),
        "replies": sum(pct.get(kind, 0.0) for kind in sorted(REPLY_KINDS)),
        **{kind: pct.get(kind, 0.0) for kind in (
            Kind.L2_REPLY, Kind.L1_DATA_ACK, Kind.L2_WB_ACK, Kind.L1_INV_ACK)},
        "MEMORY": pct.get(Kind.MEMORY_DATA, 0.0) + pct.get(Kind.MEMORY_ACK, 0.0),
        Kind.L1_TO_L1: pct.get(Kind.L1_TO_L1, 0.0),
    }, results)


def table5(workloads: List[str], n_cores: int = 64, seed: int = 1
           ) -> Dict[object, float]:
    """Ordinal distribution of circuit reservations (paper Table 5)."""
    results = cells(n_cores, [Variant.COMPLETE_NOACK], workloads,
                    seed)[Variant.COMPLETE_NOACK].values()
    counters: Dict[object, str] = {
        i: f"circuit.reservation_ordinal.{i}" for i in range(1, 6)}
    counters["failed"] = "circuit.reservation_failed"
    counts = {key: sum(result.counter(name) for result in results)
              for key, name in counters.items()}
    total = sum(counts.values())
    if total == 0:
        return {}
    return _nan_if_failed(
        {key: 100.0 * count / total for key, count in counts.items()},
        results)


def table6() -> Dict[Tuple[str, int], float]:
    """Router area savings per variant and chip size (paper Table 6)."""
    return {(label, n_cores): 100.0 * area_savings(
                SystemConfig(n_cores=n_cores).with_variant(variant))
            for label, variant in (("Fragmented", Variant.FRAGMENTED),
                                   ("Complete", Variant.COMPLETE),
                                   ("Complete Timed", Variant.TIMED_NOACK))
            for n_cores in (16, 64)}
