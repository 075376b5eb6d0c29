"""Reproduction of the paper's Figures 6-10 (evaluation section)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.circuits.outcomes import OUTCOME_ORDER
from repro.harness.experiment import (RunResult, RunSpec, degrades,
                                      run_specs, spec_keys)
from repro.noc.topology import TOPOLOGY_CHOICES
from repro.sim.config import Variant
from repro.sim.stats import mean_and_stderr


def cells(n_cores: int, variants: List[Variant],
          workloads: List[str], seed: int = 1, topology: str = ""
          ) -> Dict[Variant, Dict[str, RunResult]]:
    """``results[variant][workload]`` of one :func:`run_specs` batch (a
    failed run degrades unless ``REPRO_FAILFAST`` is set)."""
    specs = [RunSpec(n_cores, variant, workload, seed, topology=topology)
             for variant in variants for workload in workloads]
    keys = spec_keys(specs)
    done = run_specs(dict(zip(keys, specs)), safe=degrades())
    grid = iter(done[key] for key in keys)
    return {variant: {workload: next(grid) for workload in workloads}
            for variant in variants}


def _ratio(value: float, reference: float) -> float:
    """NaN-safe ratio: a failed run contributes NaN instead of crashing."""
    if not value or not reference:
        return float("nan")
    return value / reference

#: Circuit-building configurations of Fig. 6 (both chip sizes).
FIG6_VARIANTS = [
    Variant.FRAGMENTED,
    Variant.COMPLETE,
    Variant.COMPLETE_NOACK,
    Variant.REUSE_NOACK,
    Variant.TIMED_NOACK,
    Variant.SLACK1_NOACK,
    Variant.SLACK2_NOACK,
    Variant.SLACK4_NOACK,
    Variant.SLACKDELAY1_NOACK,
    Variant.SLACKDELAY2_NOACK,
    Variant.POSTPONED1_NOACK,
    Variant.POSTPONED2_NOACK,
    Variant.IDEAL,
]

#: Latency comparison configurations of Fig. 7.
FIG7_VARIANTS = [
    Variant.BASELINE,
    Variant.FRAGMENTED,
    Variant.COMPLETE,
    Variant.COMPLETE_NOACK,
    Variant.REUSE_NOACK,
    Variant.TIMED_NOACK,
    Variant.SLACKDELAY1_NOACK,
    Variant.POSTPONED1_NOACK,
    Variant.IDEAL,
]

#: Energy configurations of Fig. 8 (paper excludes Ideal and Postponed).
FIG8_VARIANTS = [
    Variant.FRAGMENTED,
    Variant.COMPLETE,
    Variant.COMPLETE_NOACK,
    Variant.REUSE_NOACK,
    Variant.TIMED_NOACK,
    Variant.SLACKDELAY1_NOACK,
]

#: Speedup configurations of Fig. 9.
FIG9_VARIANTS = [
    Variant.FRAGMENTED,
    Variant.COMPLETE,
    Variant.COMPLETE_NOACK,
    Variant.REUSE_NOACK,
    Variant.TIMED_NOACK,
    Variant.SLACKDELAY1_NOACK,
    Variant.IDEAL,
]

#: Variants each table / figure command of the report simulates, by
#: command name (table6 is a pure area model: none).
REPORT_VARIANTS: Dict[str, List[Variant]] = {
    "table1": [Variant.BASELINE],
    "table5": [Variant.COMPLETE_NOACK],
    "table6": [],
    "fig6": FIG6_VARIANTS,
    "fig7": FIG7_VARIANTS,
    "fig8": [Variant.BASELINE] + FIG8_VARIANTS,
    "fig9": [Variant.BASELINE] + FIG9_VARIANTS,
    "fig10": [Variant.BASELINE, Variant.SLACKDELAY1_NOACK],
}


def report_specs(n_cores: int, workloads: List[str], seed: int = 1,
                 names: Optional[Iterable[str]] = None) -> List[RunSpec]:
    """Every spec the named commands (default: all of them) simulate on
    ``n_cores``, variant-major, each variant once."""
    variants: List[Variant] = []
    for name in REPORT_VARIANTS if names is None else names:
        for variant in REPORT_VARIANTS[name]:
            if variant not in variants:
                variants.append(variant)
    return [RunSpec(n_cores, variant, workload, seed)
            for variant in variants for workload in workloads]


#: Paper headline numbers for cross-checking (EXPERIMENTS.md).
PAPER_ENERGY_REDUCTION = {16: 15.2, 64: 20.8}  # Complete_NoAck, percent
PAPER_SPEEDUP = {
    (Variant.COMPLETE_NOACK, 16): 3.8,
    (Variant.COMPLETE_NOACK, 64): 4.8,
    (Variant.SLACKDELAY1_NOACK, 16): 4.4,
    (Variant.SLACKDELAY1_NOACK, 64): 6.0,
}


def figure6(workloads: List[str], n_cores: int, seed: int = 1
            ) -> Dict[str, Dict[str, float]]:
    """Reply outcome breakdown per variant (averaged over workloads)."""
    out: Dict[str, Dict[str, float]] = {}
    for variant, per in cells(n_cores, FIG6_VARIANTS, workloads, seed).items():
        sums = {o.value: 0.0 for o in OUTCOME_ORDER}
        for result in per.values():
            for key, value in result.outcomes.items():
                sums[key] += value
        out[variant.value] = {
            key: value / len(per) for key, value in sums.items()
        }
    return out


def figure7(workloads: List[str], n_cores: int, seed: int = 1
            ) -> Dict[str, Dict[str, Tuple[float, float, float]]]:
    """Message latency by class per variant.

    Per class: (mean network latency, mean queueing latency, network
    latency p95), workload-averaged.  The p95 comes from the full
    distributions that :meth:`RunResult.percentile` now carries, so the
    tail is measured, not approximated from means.
    """
    out: Dict[str, Dict[str, Tuple[float, float, float]]] = {}
    for variant, per in cells(n_cores, FIG7_VARIANTS, workloads, seed).items():
        per_class = {cls: [0.0, 0.0, 0.0] for cls in ("req", "crep", "norep")}
        for result in per.values():
            for cls in per_class:
                per_class[cls][0] += result.mean(f"lat.net.{cls}")
                per_class[cls][1] += result.mean(f"lat.queue.{cls}")
                per_class[cls][2] += result.percentile(f"lat.net.{cls}", 95)
        out[variant.value] = {
            cls: tuple(value / len(per) for value in vals)
            for cls, vals in per_class.items()
        }
    return out


def figure8(workloads: List[str], n_cores: int, seed: int = 1
            ) -> Dict[str, Tuple[float, float]]:
    """Network energy normalised to baseline: (mean, stderr) per variant."""
    grid = cells(n_cores, REPORT_VARIANTS["fig8"], workloads, seed)
    base = grid[Variant.BASELINE]
    out: Dict[str, Tuple[float, float]] = {"Baseline": (1.0, 0.0)}
    for variant in FIG8_VARIANTS:
        out[variant.value] = mean_and_stderr([
            _ratio(result.energy_total, base[workload].energy_total)
            for workload, result in grid[variant].items()])
    return out


def figure9(workloads: List[str], n_cores: int, seed: int = 1
            ) -> Dict[str, Tuple[float, float]]:
    """Speedup vs. baseline: (mean, stderr) per variant."""
    grid = cells(n_cores, REPORT_VARIANTS["fig9"], workloads, seed)
    base = grid[Variant.BASELINE]
    out: Dict[str, Tuple[float, float]] = {}
    for variant in FIG9_VARIANTS:
        out[variant.value] = mean_and_stderr([
            _ratio(base[workload].exec_cycles, result.exec_cycles)
            for workload, result in grid[variant].items()])
    return out


def figure10(workloads: List[str], n_cores: int = 64, seed: int = 1,
             variant: Variant = Variant.SLACKDELAY1_NOACK
             ) -> Dict[str, float]:
    """Per-application speedup for timed circuits with slack+delay of 1."""
    grid = cells(n_cores, [Variant.BASELINE, variant], workloads, seed)
    return {workload: _ratio(grid[Variant.BASELINE][workload].exec_cycles,
                             result.exec_cycles)
            for workload, result in grid[variant].items()}


def figure_topology(workloads: List[str], n_cores: int = 16, seed: int = 1,
                    topologies: Tuple[str, ...] = TOPOLOGY_CHOICES,
                    variant: Variant = Variant.COMPLETE_NOACK
                    ) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Circuit effectiveness per topology (BASELINE vs ``variant``).

    Per topology: workload-averaged (mean, stderr) of the speedup over
    that topology's own baseline, of the circuit success rate, and of
    the mean circuit-reply network latency.  The paper's mechanism only
    needs deterministic same-routers routing, so the comparison shows it
    carrying over from the mesh to the torus and concentrated mesh.
    """
    out: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for topology in topologies:
        grid = cells(n_cores, [Variant.BASELINE, variant], workloads, seed,
                     topology)
        speedups, success, latency = [], [], []
        for workload, result in grid[variant].items():
            speedups.append(_ratio(grid[Variant.BASELINE][workload]
                                   .exec_cycles, result.exec_cycles))
            replies = result.counter("circuit.replies_total")
            success.append(
                result.counter("circuit.outcome.on_circuit") / replies
                if replies else float("nan")
            )
            latency.append(result.mean("lat.net.crep"))
        out[topology] = {
            "speedup": mean_and_stderr(speedups),
            "circuit_success": mean_and_stderr(success),
            "reply_latency": mean_and_stderr(latency),
        }
    return out
