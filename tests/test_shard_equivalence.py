"""A/B gate for the sharded engine: bit-identity with single-process runs.

The sharded engine (:mod:`repro.sim.shard`) must be a pure execution-
engine change: for any configuration, splitting the mesh across worker
processes yields the exact same statistics (counters, means, histograms)
and the exact same finish cycle as simulating the whole chip in one
process.  These tests pin that contract for the paper's main variants,
for both router pipelines (fastpath on/off), and through the public
``run_experiment`` / ``REPRO_SHARDS`` entry points.
"""

import os

import pytest

from repro.cpu.workloads import workload_by_name
from repro.sim.config import Variant, small_test_config
from repro.sim.shard import resolve_shards, run_sharded, shard_window
from repro.system import CmpSystem

WARMUP = 80
MEASURE = 250


def _reference(config, workload="canneal"):
    system = CmpSystem(config, workload_by_name(workload))
    system.warmup(WARMUP)
    start = system.sim.cycle
    finish = system.run_instructions(MEASURE)
    return system.stats.snapshot(), start, finish, system.sim.cycle


@pytest.fixture(autouse=True)
def _no_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)


@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.COMPLETE])
@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_run_bit_identical(variant, n_shards):
    config = small_test_config(16, variant, seed=3)
    ref_stats, start, finish, end = _reference(config)
    result = run_sharded(config, "canneal", WARMUP, MEASURE,
                         n_shards=n_shards, check=False)
    assert result.n_shards == n_shards
    assert result.start_cycle == start
    assert result.finish_cycle == finish
    assert result.end_cycle == end
    assert result.stats.snapshot() == ref_stats


@pytest.mark.parametrize("variant",
                         [Variant.BASELINE, Variant.COMPLETE,
                          Variant.FRAGMENTED])
def test_sharded_run_bit_identical_reference_pipeline(variant):
    """The pre-overhaul (fastpath=False) pipeline shards identically."""
    from dataclasses import replace

    config = small_test_config(16, variant, seed=3)
    config = replace(config, noc=replace(config.noc, fastpath=False))
    ref_stats, start, finish, _end = _reference(config)
    result = run_sharded(config, "canneal", WARMUP, MEASURE,
                         n_shards=2, check=False)
    assert result.start_cycle == start
    assert result.finish_cycle == finish
    assert result.stats.snapshot() == ref_stats


def test_sharded_run_with_invariant_monitor():
    """The shard-aware InvariantMonitor passes on every worker and the
    audited run stays bit-identical to the unaudited single process."""
    config = small_test_config(16, Variant.COMPLETE, seed=3)
    ref_stats, _start, finish, _end = _reference(config)
    result = run_sharded(config, "canneal", WARMUP, MEASURE,
                         n_shards=2, check=True, check_interval=500)
    assert result.finish_cycle == finish
    assert result.stats.snapshot() == ref_stats


def test_run_experiment_with_shards_matches(monkeypatch):
    """REPRO_SHARDS flows through run_experiment to an identical RunResult."""
    from repro.harness import experiment
    from repro.harness.experiment import RunSpec, run_experiment

    spec = RunSpec(16, Variant.COMPLETE, "canneal", seed=3,
                   measure_instructions=MEASURE,
                   warmup_instructions=WARMUP)
    experiment._memo.clear()
    reference = run_experiment(spec)
    experiment._memo.clear()
    monkeypatch.setenv("REPRO_SHARDS", "2")
    sharded = run_experiment(spec)
    assert sharded.to_json() == reference.to_json()
    # bit-identical results share the memo: a repeat call is a hit
    assert run_experiment(spec) is sharded
    experiment._memo.clear()


def test_measure_only_run_matches():
    """warmup_instructions=0 skips warmup in both engines identically."""
    config = small_test_config(16, Variant.BASELINE, seed=5)
    system = CmpSystem(config, workload_by_name("fft"))
    start = system.sim.cycle
    finish = system.run_instructions(MEASURE)
    ref_stats = system.stats.snapshot()
    result = run_sharded(config, "fft", 0, MEASURE, n_shards=2, check=False)
    assert result.start_cycle == start
    assert result.finish_cycle == finish
    assert result.stats.snapshot() == ref_stats


def test_shard_window_respects_lookahead():
    assert shard_window(1) == 2
    assert shard_window(0) == 1
    assert shard_window(3) == 4
    assert shard_window(7) == 8
    assert shard_window(100) == 16  # capped by the drain check interval


def test_resolve_shards(monkeypatch):
    from repro.sim.config import SimConfig, SystemConfig

    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    config = SystemConfig(n_cores=16)
    assert resolve_shards(config) == 1
    monkeypatch.setenv("REPRO_SHARDS", "3")
    assert resolve_shards(config) == 3
    monkeypatch.setenv("REPRO_SHARDS", "nope")
    with pytest.raises(ValueError):
        resolve_shards(config)
    monkeypatch.setenv("REPRO_SHARDS", "9")
    with pytest.raises(ValueError):
        resolve_shards(config)  # 9 row bands do not fit a 4x4 mesh
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    explicit = SystemConfig(n_cores=16, sim=SimConfig(shards=2))
    assert resolve_shards(explicit) == 2
    with pytest.raises(ValueError):
        SystemConfig(n_cores=16, sim=SimConfig(shards=5))


def test_worker_error_propagates():
    """A failure inside one worker surfaces as the matching exception."""
    from repro.sim.kernel import DeadlockError

    config = small_test_config(16, Variant.BASELINE, seed=3)
    with pytest.raises(DeadlockError):
        # 10 cycles cannot drain even the warmup traffic; every shard
        # hits its deadline at the same barrier and the coordinator
        # re-raises the worker's DeadlockError.
        run_sharded(config, "canneal", 0, MEASURE, n_shards=2,
                    check=False, _max_measure_cycles=10)
