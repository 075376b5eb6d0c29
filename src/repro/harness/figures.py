"""Reproduction of the paper's Figures 6-10 (evaluation section)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

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


def _nan_if_failed(table: dict, results: Iterable[RunResult],
                   nan: object = float("nan")) -> dict:
    """``table``, or ``nan`` in every cell if a run failed: an average
    over the surviving workloads is not the table or figure (the ratio
    figures' means go NaN the same way)."""
    if any(result.failed for result in results):
        return dict.fromkeys(table, nan)
    return table


def _ratio(value: float, reference: float) -> float:
    """NaN-safe ratio: a failed run contributes NaN instead of crashing."""
    if not value or not reference:
        return float("nan")
    return value / reference

#: Energy configurations of Fig. 8 (the paper excludes Ideal and
#: Postponed).
FIG8_VARIANTS = [Variant.FRAGMENTED, Variant.COMPLETE, Variant.COMPLETE_NOACK,
                 Variant.REUSE_NOACK, Variant.TIMED_NOACK,
                 Variant.SLACKDELAY1_NOACK]

#: Speedup configurations of Fig. 9: Fig. 8's and the Ideal bound.
FIG9_VARIANTS = FIG8_VARIANTS + [Variant.IDEAL]

#: Latency comparison configurations of Fig. 7: Baseline, Fig. 8's,
#: Postponed1 and Ideal.
FIG7_VARIANTS = [Variant.BASELINE, *FIG8_VARIANTS, Variant.POSTPONED1_NOACK,
                 Variant.IDEAL]

#: Circuit-building configurations of Fig. 6 (both chip sizes): every
#: variant with circuits but Reuse with acknowledgements.
FIG6_VARIANTS = [variant for variant in Variant
                 if variant not in (Variant.BASELINE, Variant.REUSE)]

#: The paper's Fig. 9 speedups in percent (the report's entry sets them
#: beside the measured ones).
PAPER_SPEEDUP = {
    (Variant.COMPLETE_NOACK, 16): 3.8,
    (Variant.COMPLETE_NOACK, 64): 4.8,
    (Variant.SLACKDELAY1_NOACK, 16): 4.4,
    (Variant.SLACKDELAY1_NOACK, 64): 6.0,
}


def figure6(workloads: List[str], n_cores: int, seed: int = 1
            ) -> Dict[str, Dict[str, float]]:
    """Reply outcome breakdown per variant (averaged over workloads)."""
    grid = cells(n_cores, FIG6_VARIANTS, workloads, seed)
    return {variant.value: _nan_if_failed({
        o.value: sum(result.outcomes.get(o.value, 0.0)
                     for result in per.values()) / len(per)
        for o in OUTCOME_ORDER}, per.values())
        for variant, per in grid.items()}


def figure7(workloads: List[str], n_cores: int, seed: int = 1
            ) -> Dict[str, Dict[str, Tuple[float, float, float]]]:
    """Message latency by class per variant.

    Per class: (mean network latency, mean queueing latency, network
    latency p95), workload-averaged.  The p95 comes from the full
    distributions that :meth:`RunResult.percentile` now carries, so the
    tail is measured, not approximated from means.
    """
    def averaged(per: Dict[str, RunResult], cls: str) -> Tuple[float, ...]:
        samples = [(result.mean(f"lat.net.{cls}"),
                    result.mean(f"lat.queue.{cls}"),
                    result.percentile(f"lat.net.{cls}", 95))
                   for result in per.values()]
        return tuple(sum(column) / len(per) for column in zip(*samples))

    grid = cells(n_cores, FIG7_VARIANTS, workloads, seed)
    return {variant.value: _nan_if_failed(
        {cls: averaged(per, cls) for cls in ("req", "crep", "norep")},
        per.values(), (float("nan"),) * 3) for variant, per in grid.items()}


def figure8(workloads: List[str], n_cores: int, seed: int = 1
            ) -> Dict[str, Tuple[float, float]]:
    """Network energy normalised to baseline: (mean, stderr) per variant."""
    grid = cells(n_cores, [Variant.BASELINE] + FIG8_VARIANTS, workloads,
                 seed)
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
    grid = cells(n_cores, [Variant.BASELINE] + FIG9_VARIANTS, workloads,
                 seed)
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
