"""Design-space sweep utilities built on the synthetic traffic driver.

These answer the scalability questions the paper raises in sections 5.2
and 5.5 - how circuit construction behaves as the chip grows, as load
rises, and as router buffering changes - without the cost of full
protocol simulation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro._record import record
from repro.config import resolve_jobs
from repro.noc.traffic import RequestReplyTraffic
from repro.sim.config import SystemConfig, Variant


@record(frozen=True)
class SweepPoint:
    """One measured sweep configuration."""

    label: str
    circuit_success: float
    mean_reply_latency: float
    offered_load: float


def _measure(config: SystemConfig, rate: float, cycles: int, seed: int,
             label: str) -> SweepPoint:
    traffic = RequestReplyTraffic(config, rate, seed=seed)
    traffic.run(cycles)
    traffic.drain()
    return SweepPoint(
        label=label,
        circuit_success=traffic.circuit_success_rate() or 0.0,
        mean_reply_latency=traffic.mean_reply_latency(),
        offered_load=traffic.offered_load_flits_per_kcycle_node(),
    )


def _measure_task(payload: Tuple) -> SweepPoint:
    """Pool worker for one sweep point (module-level, hence picklable)."""
    return _measure(*payload)


def _measure_points(payloads: Sequence[Tuple],
                    jobs: Optional[int]) -> List[SweepPoint]:
    """Measure the points serially or across worker processes.

    Every point is an independent traffic simulation with its own seed,
    so the results are identical either way; they are re-ordered back to
    the input order after a parallel run.
    """
    n_jobs = resolve_jobs(jobs)
    if n_jobs <= 1 or len(payloads) <= 1:
        return [_measure(*payload) for payload in payloads]
    from repro import api

    done = api.map_tasks(
        {str(i): payload for i, payload in enumerate(payloads)},
        worker=_measure_task, jobs=n_jobs,
    )
    return [done[str(i)] for i in range(len(payloads))]


def mesh_scaling_sweep(
    sides: Sequence[int] = (4, 6, 8, 10),
    variant: Variant = Variant.COMPLETE_NOACK,
    rate: float = 6.0,
    cycles: int = 5_000,
    seed: int = 1,
    jobs: Optional[int] = None,
) -> List[SweepPoint]:
    """Circuit success vs. chip size (the paper's scalability concern).

    Longer paths mean more routers where a reservation can conflict, so
    the success rate falls as the mesh grows - the effect behind the gap
    between the paper's Figures 6a and 6b.
    """
    payloads = [
        (SystemConfig(n_cores=side * side).with_variant(variant),
         rate, cycles, seed, f"{side * side} cores")
        for side in sides
    ]
    return _measure_points(payloads, jobs)


def load_sweep(
    rates: Sequence[float] = (2.0, 6.0, 12.0, 24.0, 48.0),
    variant: Variant = Variant.COMPLETE_NOACK,
    n_cores: int = 16,
    cycles: int = 5_000,
    seed: int = 1,
    jobs: Optional[int] = None,
) -> List[SweepPoint]:
    """Circuit success and latency vs. injection rate (section 5.5)."""
    payloads = [
        (SystemConfig(n_cores=n_cores).with_variant(variant),
         rate, cycles, seed, f"{rate:g} req/kcyc")
        for rate in rates
    ]
    return _measure_points(payloads, jobs)


def buffer_depth_sweep(
    depths: Sequence[int] = (3, 5, 8),
    variant: Variant = Variant.BASELINE,
    n_cores: int = 16,
    rate: float = 24.0,
    cycles: int = 5_000,
    seed: int = 1,
    jobs: Optional[int] = None,
) -> List[SweepPoint]:
    """Reply latency vs. router buffer depth (baseline sensitivity).

    The paper's Table 4 fixes 5-flit buffers ("enough to store a whole
    message"); this sweep shows what that choice buys under load.
    """
    base = SystemConfig(n_cores=n_cores).with_variant(variant)
    payloads = [
        (replace(base, noc=replace(base.noc, buffer_depth_flits=depth)),
         rate, cycles, seed, f"{depth}-flit buffers")
        for depth in depths
    ]
    return _measure_points(payloads, jobs)


def render_sweep(points: Sequence[SweepPoint], title: str) -> str:
    """Plain-text rendering of a sweep."""
    lines = [title]
    width = max(len(p.label) for p in points)
    for p in points:
        lines.append(
            f"  {p.label.ljust(width)}  success {100 * p.circuit_success:5.1f}%"
            f"  reply latency {p.mean_reply_latency:6.1f} cyc"
            f"  load {p.offered_load:6.1f} flits/kcyc/node"
        )
    return "\n".join(lines)
