"""Simulation kernel, RNG and statistics."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.kernel import DeadlockError, ProgressWatchdog, Simulator
from repro.sim.rng import DeterministicRng
from repro.sim.stats import (
    Histogram,
    MeanStat,
    Stats,
    mean_and_stderr,
    weighted_fractions,
)


class Counter:
    def __init__(self):
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)


def test_simulator_ticks_in_order():
    sim = Simulator()
    a, b = Counter(), Counter()
    sim.add(a)
    sim.add(b)
    sim.run(3)
    assert a.ticks == b.ticks == [0, 1, 2]
    assert sim.cycle == 3


def test_run_until_completes():
    sim = Simulator()
    c = Counter()
    sim.add(c)
    end = sim.run_until(lambda: len(c.ticks) >= 100, max_cycles=1000,
                        check_interval=7)
    assert len(c.ticks) >= 100
    assert end == sim.cycle


def test_run_until_deadline():
    sim = Simulator()
    with pytest.raises(DeadlockError):
        sim.run_until(lambda: False, max_cycles=50)


def test_run_until_never_steps_past_deadline():
    # regression: check_interval (64) > max_cycles used to overshoot by
    # up to check_interval - 1 cycles before the deadline re-check
    sim = Simulator()
    with pytest.raises(DeadlockError):
        sim.run_until(lambda: False, max_cycles=50, check_interval=64)
    assert sim.cycle == 50


def test_run_until_no_success_on_borrowed_cycles():
    # regression: completion after max_cycles but within the overshot
    # chunk used to be reported as success instead of DeadlockError
    sim = Simulator()
    counter = Counter()
    sim.add(counter)
    with pytest.raises(DeadlockError):
        sim.run_until(lambda: len(counter.ticks) >= 60, max_cycles=50,
                      check_interval=64)
    assert sim.cycle == 50


def test_run_until_done_at_entry_runs_nothing():
    sim = Simulator()
    assert sim.run_until(lambda: True, max_cycles=10) == 0
    assert sim.cycle == 0


def test_progress_watchdog_detects_stall():
    sim = Simulator()
    watchdog = ProgressWatchdog(lambda: 42, window=10)
    sim.add_watchdog(watchdog)
    with pytest.raises(DeadlockError):
        sim.run(100)


def test_progress_watchdog_allows_progress():
    sim = Simulator()
    c = Counter()
    sim.add(c)
    sim.add_watchdog(ProgressWatchdog(lambda: len(c.ticks), window=10))
    sim.run(100)  # should not raise


def test_rng_streams_are_deterministic_and_independent():
    a = DeterministicRng(7).stream("x")
    b = DeterministicRng(7).stream("x")
    c = DeterministicRng(7).stream("y")
    d = DeterministicRng(8).stream("x")
    seq_a = [a.random() for _ in range(5)]
    assert seq_a == [b.random() for _ in range(5)]
    assert seq_a != [c.random() for _ in range(5)]
    assert seq_a != [d.random() for _ in range(5)]


def test_stats_counters_and_means():
    stats = Stats()
    stats.bump("a")
    stats.bump("a", 2)
    stats.observe("lat", 10)
    stats.observe("lat", 20)
    assert stats.counter("a") == 3
    assert stats.mean("lat") == 15
    assert stats.counter("missing") == 0
    assert stats.mean("missing") == 0.0


def test_stats_merge_and_reset():
    a, b = Stats(), Stats()
    a.bump("x")
    b.bump("x", 4)
    b.observe("m", 8)
    a.merge(b)
    assert a.counter("x") == 5
    assert a.mean("m") == 8
    a.reset()
    assert a.counter("x") == 0


def test_stats_share_and_prefix():
    stats = Stats()
    stats.bump("p.a", 3)
    stats.bump("p.b", 1)
    stats.bump("q.c", 6)
    assert stats.share(["p.a"], ["p.a", "p.b"]) == 0.75
    assert stats.counters_with_prefix("p.") == {"p.a": 3, "p.b": 1}


def test_stats_snapshot_round_trip():
    """``snapshot`` flushes batched counters and keeps every accumulator
    (bucket widths included); ``from_snapshot`` rebuilds an equal Stats."""
    stats = Stats()
    pending = [7]  # a batcher's unflushed delta

    def flusher():
        while pending:
            stats.counters["noc.link_flits"] += pending.pop()

    stats.add_flusher(flusher)
    stats.bump("a", 2)
    stats.observe("m", 8, weight=2)
    stats.record("lat", 3.7)
    stats.histograms["fine"] = Histogram(bucket_width=0.25)
    stats.histograms["fine"].add(1.3)
    snap = stats.snapshot()
    assert snap[0] == {"a": 2, "noc.link_flits": 7}
    assert snap[1] == {"m": (8, 2), "lat": (3.7, 1)}
    assert snap[2] == {"lat": (1, {3: 1}, 1), "fine": (0.25, {5: 1}, 1)}
    rebuilt = Stats.from_snapshot(snap)
    assert rebuilt.snapshot() == snap
    assert rebuilt.percentile("fine", 50) == 1.25
    rebuilt.merge(stats)  # widths survived, so the histograms still merge
    assert rebuilt.counter("a") == 4 and rebuilt.histograms["fine"].count == 2


def test_weighted_fractions():
    assert weighted_fractions({"a": 1, "b": 3}) == {"a": 0.25, "b": 0.75}
    assert weighted_fractions({"a": 0}) == {"a": 0.0}


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
def test_mean_and_stderr_properties(values):
    mean, err = mean_and_stderr(values)
    assert min(values) - 1e-6 <= mean <= max(values) + 1e-6
    assert err >= 0


def test_mean_stat_merge():
    a, b = MeanStat(), MeanStat()
    a.add(10)
    b.add(20)
    b.add(30)
    a.merge(b)
    assert a.mean == 20
    assert a.count == 3
