"""Statistics accumulation shared by all subsystems.

A :class:`Stats` object is a flat namespace of integer counters plus mean
accumulators, deliberately simple so hot paths can bump plain dict entries.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


class MeanStat:
    """Streaming mean (sum + count), mergeable across runs."""

    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: float, weight: int = 1) -> None:
        self.total += value
        self.count += weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "MeanStat") -> None:
        self.total += other.total
        self.count += other.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MeanStat(mean={self.mean:.3f}, n={self.count})"


class Histogram:
    """Sparse fixed-width-bucket histogram with percentile queries.

    Values are collapsed onto a bucket grid at ``add()`` time: a sample
    ``v`` lands in bucket ``int(v / bucket_width)``, so with the default
    ``bucket_width`` of 1 every value is truncated to its integer part
    and percentile/mean/max answers are exact only to whole units
    (integer-cycle latencies lose nothing).  Pass a finer
    ``bucket_width`` (e.g. 0.25) when sub-unit resolution matters -
    percentile answers are then exact to that granularity.  All query
    methods report a bucket's lower edge (``bucket * bucket_width``).
    """

    __slots__ = ("buckets", "count", "bucket_width")

    def __init__(self, bucket_width: float = 1) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.bucket_width = bucket_width

    def add(self, value: float) -> None:
        bucket = int(value / self.bucket_width)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100] (0 for empty histograms).

        Answers snap to the bucket grid documented in the class
        docstring: the returned value is the lower edge of the bucket
        containing the requested rank.
        """
        if not self.count:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        target = max(1, int(round(self.count * p / 100.0)))
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= target:
                return bucket * self.bucket_width
        return max(self.buckets) * self.bucket_width

    @property
    def mean(self) -> float:
        if not self.count:
            return 0.0
        width = self.bucket_width
        return sum(b * width * n for b, n in self.buckets.items()) / self.count

    @property
    def max(self) -> float:
        if not self.buckets:
            return 0.0
        return max(self.buckets) * self.bucket_width

    def merge(self, other: "Histogram") -> None:
        if other.bucket_width != self.bucket_width:
            raise ValueError(
                f"cannot merge histograms with different bucket widths "
                f"({self.bucket_width} vs {other.bucket_width})"
            )
        for bucket, n in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + n
        self.count += other.count


class Stats:
    """Counters, means and histograms, keyed by plain strings.

    Use ``bump`` for event counts, ``observe`` for latency-style samples,
    and ``record`` when the full distribution matters (percentiles).  Keys
    use a ``subsystem.metric`` convention, e.g. ``noc.flits_injected`` or
    ``circuit.replies_on_circuit``.

    Hot components (the router core for every router and NI, the
    circuit policy) batch their per-flit counters in plain int
    attributes and register a *flusher* here; every read-style method
    (``counter``, ``counters_with_prefix``, ``as_dict``, ``snapshot``,
    ``share``, ``merge``, ``reset``) calls :meth:`flush` first, so observers
    (samplers, invariant checkers, forensics, result builders) always see
    complete counts.  That makes a read cost one call per registered
    batcher - two, whatever the chip size - so read-style
    methods are for interval and end-of-phase observers; a hook that runs
    every stepped cycle (a kernel watchdog's probe) must not call them,
    or it undoes the batching.  Such a hook reads ``counters`` plus the
    batchers' pending ints itself, as ``Network.msgs_delivered`` does
    (``tests/test_system_misc.py`` counts flusher calls to hold this).
    A flusher must move its pending deltas into ``counters`` and zero
    itself, and must not add keys whose pending delta is zero (snapshot
    equality with unbatched runs depends on it).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = defaultdict(int)
        self.means: Dict[str, MeanStat] = defaultdict(MeanStat)
        self.histograms: Dict[str, Histogram] = defaultdict(Histogram)
        self._flushers: List[Callable[[], None]] = []

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount

    def add_flusher(self, flusher: Callable[[], None]) -> None:
        """Register a callback that drains batched counters into us."""
        self._flushers.append(flusher)

    def flush(self) -> None:
        """Drain every registered batcher so ``counters`` is complete."""
        for flusher in self._flushers:
            flusher()

    def observe(self, key: str, value: float, weight: int = 1) -> None:
        self.means[key].add(value, weight)

    def record(self, key: str, value: float) -> None:
        """Observe into both the mean and the distribution for ``key``."""
        self.means[key].add(value)
        self.histograms[key].add(value)

    def percentile(self, key: str, p: float) -> float:
        hist = self.histograms.get(key)
        return hist.percentile(p) if hist else 0.0

    def counter(self, key: str) -> int:
        if self._flushers:
            self.flush()
        return self.counters.get(key, 0)

    def mean(self, key: str) -> float:
        stat = self.means.get(key)
        return stat.mean if stat else 0.0

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        if self._flushers:
            self.flush()
        return {
            key: value
            for key, value in self.counters.items()
            if key.startswith(prefix)
        }

    def reset(self) -> None:
        """Clear all accumulated statistics (used after cache warmup).

        Registered batchers are flushed first so their accumulators are
        zeroed too; their pre-reset deltas are discarded along with
        everything else.
        """
        self.flush()
        self.counters.clear()
        self.means.clear()
        self.histograms.clear()

    def merge(self, other: "Stats") -> None:
        self.flush()
        other.flush()
        for key, value in other.counters.items():
            self.counters[key] += value
        for key, stat in other.means.items():
            self.means[key].merge(stat)
        for key, hist in other.histograms.items():
            self.histograms[key].merge(hist)

    def snapshot(self) -> tuple:
        """Every accumulator as plain data: the bit-identity witness two
        runs are compared by, and (``Stats`` holds unpicklable flusher
        closures) the form a shard worker ships its stats in."""
        self.flush()
        return (
            dict(self.counters),
            {k: (m.total, m.count) for k, m in self.means.items()},
            {k: (h.bucket_width, dict(h.buckets), h.count)
             for k, h in self.histograms.items()},
        )

    @classmethod
    def from_snapshot(cls, snapshot: tuple) -> "Stats":
        """Rebuild the ``Stats`` that :meth:`snapshot` was taken from."""
        counters, means, histograms = snapshot
        stats = cls()
        stats.counters.update(counters)
        for key, (total, count) in means.items():
            stat = stats.means[key]
            stat.total = total
            stat.count = count
        for key, (width, buckets, count) in histograms.items():
            hist = stats.histograms[key]
            hist.bucket_width = width
            hist.buckets.update(buckets)
            hist.count = count
        return stats

    def as_dict(self) -> Dict[str, float]:
        """Flatten to plain floats (counters verbatim, means as averages)."""
        if self._flushers:
            self.flush()
        out: Dict[str, float] = dict(self.counters)
        for key, stat in self.means.items():
            out[f"{key}.mean"] = stat.mean
        return out

    def share(self, keys: Iterable[str], of: Iterable[str]) -> float:
        """Fraction contributed by ``keys`` within the ``of`` population."""
        if self._flushers:
            self.flush()
        num = sum(self.counters.get(k, 0) for k in keys)
        den = sum(self.counters.get(k, 0) for k in of)
        return num / den if den else 0.0


def weighted_fractions(counts: Mapping[str, int]) -> Dict[str, float]:
    """Normalise a counter mapping to fractions that sum to 1 (or empty)."""
    total = sum(counts.values())
    if total == 0:
        return {key: 0.0 for key in counts}
    return {key: value / total for key, value in counts.items()}


def mean_and_stderr(values: Iterable[float]) -> Tuple[float, float]:
    """Sample mean and standard error (0 stderr for n < 2)."""
    data = list(values)
    n = len(data)
    if n == 0:
        return 0.0, 0.0
    mean = sum(data) / n
    if n < 2:
        return mean, 0.0
    var = sum((x - mean) ** 2 for x in data) / (n - 1)
    return mean, (var / n) ** 0.5
