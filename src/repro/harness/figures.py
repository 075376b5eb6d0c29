"""Reproduction of the paper's Figures 6-10 (evaluation section)."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import config as repro_config
from repro.circuits.outcomes import OUTCOME_ORDER
from repro.harness.experiment import (
    RunSpec,
    run_experiment,
    run_experiment_safe,
)
from repro.noc.topology import TOPOLOGY_CHOICES
from repro.sim.config import Variant
from repro.sim.stats import mean_and_stderr


def _run(spec: RunSpec):
    """Graceful-degradation runner (``REPRO_FAILFAST=1`` restores raising)."""
    if repro_config.resolve("failfast"):
        return run_experiment(spec)
    return run_experiment_safe(spec)


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
    for variant in FIG6_VARIANTS:
        sums = {o.value: 0.0 for o in OUTCOME_ORDER}
        for workload in workloads:
            result = _run(RunSpec(n_cores, variant, workload, seed))
            for key, value in result.outcomes.items():
                sums[key] += value
        out[variant.value] = {
            key: value / len(workloads) for key, value in sums.items()
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
    for variant in FIG7_VARIANTS:
        per_class = {cls: [0.0, 0.0, 0.0] for cls in ("req", "crep", "norep")}
        for workload in workloads:
            result = _run(RunSpec(n_cores, variant, workload, seed))
            for cls in per_class:
                per_class[cls][0] += result.mean(f"lat.net.{cls}")
                per_class[cls][1] += result.mean(f"lat.queue.{cls}")
                per_class[cls][2] += result.percentile(f"lat.net.{cls}", 95)
        out[variant.value] = {
            cls: tuple(value / len(workloads) for value in vals)
            for cls, vals in per_class.items()
        }
    return out


def figure8(workloads: List[str], n_cores: int, seed: int = 1
            ) -> Dict[str, Tuple[float, float]]:
    """Network energy normalised to baseline: (mean, stderr) per variant."""
    base = {
        w: _run(RunSpec(n_cores, Variant.BASELINE, w, seed))
        for w in workloads
    }
    out: Dict[str, Tuple[float, float]] = {"Baseline": (1.0, 0.0)}
    for variant in FIG8_VARIANTS:
        ratios = []
        for workload in workloads:
            result = _run(RunSpec(n_cores, variant, workload, seed))
            ratios.append(_ratio(result.energy_total, base[workload].energy_total))
        out[variant.value] = mean_and_stderr(ratios)
    return out


def figure9(workloads: List[str], n_cores: int, seed: int = 1
            ) -> Dict[str, Tuple[float, float]]:
    """Speedup vs. baseline: (mean, stderr) per variant."""
    base = {
        w: _run(RunSpec(n_cores, Variant.BASELINE, w, seed))
        for w in workloads
    }
    out: Dict[str, Tuple[float, float]] = {}
    for variant in FIG9_VARIANTS:
        speedups = []
        for workload in workloads:
            result = _run(RunSpec(n_cores, variant, workload, seed))
            speedups.append(_ratio(base[workload].exec_cycles, result.exec_cycles))
        out[variant.value] = mean_and_stderr(speedups)
    return out


def figure10(workloads: List[str], n_cores: int = 64, seed: int = 1,
             variant: Variant = Variant.SLACKDELAY1_NOACK
             ) -> Dict[str, float]:
    """Per-application speedup for timed circuits with slack+delay of 1."""
    out: Dict[str, float] = {}
    for workload in workloads:
        base = _run(RunSpec(n_cores, Variant.BASELINE, workload, seed))
        result = _run(RunSpec(n_cores, variant, workload, seed))
        out[workload] = _ratio(base.exec_cycles, result.exec_cycles)
    return out


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
        speedups, success, latency = [], [], []
        for workload in workloads:
            base = _run(RunSpec(n_cores, Variant.BASELINE, workload, seed,
                                topology=topology))
            result = _run(RunSpec(n_cores, variant, workload, seed,
                                  topology=topology))
            speedups.append(_ratio(base.exec_cycles, result.exec_cycles))
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
