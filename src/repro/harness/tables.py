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
    requests = sum(pct.get(kind, 0.0) for kind in REQUEST_KINDS)
    replies = sum(pct.get(kind, 0.0) for kind in REPLY_KINDS)
    return _nan_if_failed({
        "requests": requests,
        "replies": replies,
        Kind.L2_REPLY: pct.get(Kind.L2_REPLY, 0.0),
        Kind.L1_DATA_ACK: pct.get(Kind.L1_DATA_ACK, 0.0),
        Kind.L2_WB_ACK: pct.get(Kind.L2_WB_ACK, 0.0),
        Kind.L1_INV_ACK: pct.get(Kind.L1_INV_ACK, 0.0),
        "MEMORY": pct.get(Kind.MEMORY_DATA, 0.0) + pct.get(Kind.MEMORY_ACK, 0.0),
        Kind.L1_TO_L1: pct.get(Kind.L1_TO_L1, 0.0),
    }, results)


def table5(workloads: List[str], n_cores: int = 64, seed: int = 1
           ) -> Dict[object, float]:
    """Ordinal distribution of circuit reservations (paper Table 5)."""
    results = cells(n_cores, [Variant.COMPLETE_NOACK], workloads,
                    seed)[Variant.COMPLETE_NOACK].values()
    ordinals = {i: 0 for i in range(1, 6)}
    failed = 0
    for result in results:
        for i in ordinals:
            ordinals[i] += result.counter(f"circuit.reservation_ordinal.{i}")
        failed += result.counter("circuit.reservation_failed")
    total = sum(ordinals.values()) + failed
    if total == 0:
        return {}
    out: Dict[object, float] = {
        i: 100.0 * count / total for i, count in ordinals.items()
    }
    out["failed"] = 100.0 * failed / total
    return _nan_if_failed(out, results)


def table6() -> Dict[Tuple[str, int], float]:
    """Router area savings per variant and chip size (paper Table 6)."""
    rows = {}
    for label, variant in (
        ("Fragmented", Variant.FRAGMENTED),
        ("Complete", Variant.COMPLETE),
        ("Complete Timed", Variant.TIMED_NOACK),
    ):
        for n_cores in (16, 64):
            config = SystemConfig(n_cores=n_cores).with_variant(variant)
            rows[(label, n_cores)] = 100.0 * area_savings(config)
    return rows
