"""Time-series metric probes sampled on a kernel-friendly cadence.

A :class:`MetricRegistry` holds named probes - zero-argument-ish callables
``fn(cycle) -> float`` - and a shared cycle axis.  A :class:`MetricSampler`
watchdog invokes :meth:`MetricRegistry.sample` every ``interval`` cycles.

The sampler follows the :class:`~repro.validate.invariants.InvariantMonitor`
pattern exactly: it is a *read-only* simulator watchdog, so attaching it
never perturbs simulation state - stats counters and finish cycles stay
bit-identical to an unsampled run - and its ``next_due`` keeps the
activity-driven kernel's fast-forward legal (quiet gaps only ever stop at
sampling boundaries, where the hook actually runs).

Probe factories (:func:`counter_rate`, :func:`ratio_delta`,
:func:`mean_delta`, :func:`histogram_percentile_delta`, :func:`gauge`)
turn the cumulative :class:`~repro.sim.stats.Stats` accumulators into
*interval* values: each sample answers "what happened since the previous
sample", which is the time-resolved view the end-of-run aggregates cannot
give.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Callable, Dict, List

from repro.sim.stats import Stats

Probe = Callable[[int], float]


# ----------------------------------------------------------------------
# Probe factories: cumulative Stats accumulators -> per-interval values.
# ----------------------------------------------------------------------
def gauge(fn: Callable[[int], float]) -> Probe:
    """An instantaneous probe; ``fn(cycle)`` is reported verbatim."""
    return fn


def counter_rate(stats: Stats, key: str, interval: int) -> Probe:
    """Counter delta per cycle over the sampling interval."""
    last = [0]

    def probe(cycle: int) -> float:
        current = stats.counter(key)
        delta = current - last[0]
        last[0] = current
        return delta / interval

    return probe


def ratio_delta(stats: Stats, num_key: str, den_key: str) -> Probe:
    """Interval ratio of two counters (e.g. circuit hits / replies).

    Reports ``delta(num) / delta(den)`` since the previous sample, or 0.0
    for intervals where the denominator did not move.
    """
    last = [0, 0]

    def probe(cycle: int) -> float:
        num = stats.counter(num_key)
        den = stats.counter(den_key)
        d_num = num - last[0]
        d_den = den - last[1]
        last[0] = num
        last[1] = den
        return d_num / d_den if d_den else 0.0

    return probe


def mean_delta(stats: Stats, key: str) -> Probe:
    """Interval mean of a :class:`~repro.sim.stats.MeanStat` stream.

    Uses total/count deltas, so it reports the mean of only the samples
    observed since the previous metric sample (0.0 for empty intervals).
    """
    last = [0.0, 0]

    def probe(cycle: int) -> float:
        stat = stats.means.get(key)
        total = stat.total if stat is not None else 0.0
        count = stat.count if stat is not None else 0
        d_total = total - last[0]
        d_count = count - last[1]
        last[0] = total
        last[1] = count
        return d_total / d_count if d_count else 0.0

    return probe


def histogram_percentile_delta(stats: Stats, key: str, p: float) -> Probe:
    """Percentile ``p`` of a histogram's *interval* distribution.

    Snapshots the histogram's buckets each sample and computes the
    percentile over the bucket-count differences, i.e. over only the
    values recorded since the previous sample (0.0 for empty intervals).
    """
    last_buckets: Dict[int, int] = {}
    last_count = [0]

    def probe(cycle: int) -> float:
        hist = stats.histograms.get(key)
        if hist is None:
            return 0.0
        fresh = hist.count - last_count[0]
        last_count[0] = hist.count
        if fresh <= 0:
            last_buckets.clear()
            last_buckets.update(hist.buckets)
            return 0.0
        target = max(1, int(round(fresh * p / 100.0)))
        seen = 0
        value = 0.0
        for bucket in sorted(hist.buckets):
            delta = hist.buckets[bucket] - last_buckets.get(bucket, 0)
            if delta <= 0:
                continue
            seen += delta
            value = bucket * hist.bucket_width
            if seen >= target:
                break
        last_buckets.clear()
        last_buckets.update(hist.buckets)
        return value

    return probe


# ----------------------------------------------------------------------
# Registry + sampler.
# ----------------------------------------------------------------------
class MetricRegistry:
    """Named time-series probes sharing one cycle axis.

    Probes are sampled in registration order; every stream therefore has
    exactly ``len(registry.cycles)`` points and rows export cleanly to
    CSV/JSON.
    """

    def __init__(self) -> None:
        self.cycles: List[int] = []
        self._order: List[str] = []
        self._probes: Dict[str, Probe] = {}
        self._series: Dict[str, List[float]] = {}
        self._subscribers: List[Callable[[int, Dict[str, float]], None]] = []

    def add_probe(self, name: str, probe: Probe) -> None:
        if name in self._probes:
            raise ValueError(f"duplicate metric probe {name!r}")
        self._order.append(name)
        self._probes[name] = probe
        self._series[name] = []

    def subscribe(self, fn: Callable[[int, Dict[str, float]], None]) -> None:
        """Call ``fn(cycle, {name: value})`` after every sample.

        This is the live-streaming hook: the service daemon registers a
        subscriber that forwards each sample to interested clients while
        the run is still in flight.  Subscribers observe values, never
        produce them, so subscribed runs stay bit-identical.
        """
        self._subscribers.append(fn)

    def names(self) -> List[str]:
        return list(self._order)

    def sample(self, cycle: int) -> None:
        self.cycles.append(cycle)
        for name in self._order:
            self._series[name].append(self._probes[name](cycle))
        if self._subscribers:
            values = {name: self._series[name][-1] for name in self._order}
            for fn in self._subscribers:
                fn(cycle, values)

    def series(self, name: str) -> List[float]:
        return self._series[name]

    def __len__(self) -> int:
        return len(self.cycles)

    # -- export --------------------------------------------------------
    def rows(self) -> List[List[float]]:
        """One row per sample: ``[cycle, stream0, stream1, ...]``."""
        columns = [self._series[name] for name in self._order]
        return [
            [cycle] + [column[i] for column in columns]
            for i, cycle in enumerate(self.cycles)
        ]

    def as_dict(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {"cycle": list(self.cycles)}
        for name in self._order:
            out[name] = list(self._series[name])
        return out

    def write_csv(self, path: str) -> str:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["cycle"] + self._order)
            writer.writerows(self.rows())
        return path

    def write_json(self, path: str) -> str:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=1)
        return path


class MetricSampler:
    """Read-only simulator watchdog driving a :class:`MetricRegistry`.

    Samples on every ``interval`` boundary (cycle 0 is skipped: every
    delta probe would report an empty interval).  ``next_due`` bounds the
    kernel's global fast-forward to sampling boundaries so cadence is
    exact even through quiet gaps, while never forcing any *component*
    awake - which is why sampled runs stay bit-identical.
    """

    def __init__(self, registry: MetricRegistry, interval: int = 1000) -> None:
        if interval < 1:
            raise ValueError("interval must be positive")
        self.registry = registry
        self.interval = interval
        self._sim = None

    def attach(self, sim) -> "MetricSampler":
        sim.add_watchdog(self)
        self._sim = sim
        return self

    def detach(self) -> None:
        if self._sim is not None:
            self._sim.remove_watchdog(self)
            self._sim = None

    def __call__(self, cycle: int) -> None:
        if cycle == 0 or cycle % self.interval:
            return
        self.registry.sample(cycle)

    def next_due(self, cycle: int) -> int:
        remainder = cycle % self.interval
        if remainder == 0 and cycle != 0:
            return cycle
        return cycle + self.interval - remainder
