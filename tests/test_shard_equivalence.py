"""Gate for the sharded engine: bit-identity with single-process runs.

The sharded engine (:mod:`repro.sim.shard`) must be a pure execution-
engine change: for any configuration, splitting the mesh across worker
processes yields the exact same statistics (counters, means, histograms)
and the exact same finish cycle as simulating the whole chip in one
process.  These tests pin that contract as conformance-matrix cells
(``pinned``, see ``tests/conftest.py``) for the paper's main variants,
with checkpoints written while sharded, and through the public
``run_experiment`` / ``REPRO_SHARDS`` entry points.
"""

import pytest

from repro.sim.config import Variant, small_test_config
from repro.sim.shard import resolve_shards, run_sharded, shard_window
from repro.validate.conformance import Cell

WARMUP = 80
MEASURE = 250


def _cell(variant, **fields):
    return Cell(variant, "canneal", MEASURE, warmup=WARMUP, seed=3, **fields)


@pytest.fixture(autouse=True)
def _no_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)


@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.COMPLETE])
@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_run_bit_identical(variant, n_shards, pinned):
    pinned(_cell(variant), f"shards{n_shards}")


@pytest.mark.parametrize("variant",
                         [Variant.BASELINE, Variant.COMPLETE,
                          Variant.FRAGMENTED])
def test_sharded_run_bit_identical_reference_pipeline(variant, pinned):
    """Sharded workers that write recovery checkpoints as they go match
    the golden the deleted second pipeline generated for this cell, as
    its own sharded runs did."""
    pinned(_cell(variant), "shards2+checkpoint")


def test_sharded_run_with_invariant_monitor(pinned):
    """The shard-aware InvariantMonitor passes on every worker and the
    audited run stays bit-identical to the unaudited single process."""
    pinned(_cell(Variant.COMPLETE), "shards2+monitored")


def test_run_experiment_with_shards_matches(pinned):
    """REPRO_SHARDS flows through run_experiment to an identical RunResult."""
    pinned(_cell(Variant.COMPLETE, paper_caches=True), "api", "api+shards2")


def test_measure_only_run_matches(pinned):
    """warmup_instructions=0 skips warmup in both engines identically."""
    pinned(Cell(Variant.BASELINE, "fft", MEASURE, seed=5), "shards2")


def test_shard_window_respects_lookahead():
    assert shard_window(1) == 2
    assert shard_window(0) == 1
    assert shard_window(3) == 4
    assert shard_window(7) == 8
    assert shard_window(100) == 16  # capped by the drain check interval


def test_resolve_shards(monkeypatch):
    from repro.sim.config import SystemConfig

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
    assert resolve_shards(config, override=2) == 2
    with pytest.raises(ValueError):
        resolve_shards(config, override=5)


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
