"""Harness robustness: timeouts without SIGALRM, cache edge cases, and
graceful degradation of failing runs in a sweep."""

import json
import logging
import os
import time
import types

import pytest

from repro import proc
from repro.api import run_matrix
from repro.harness import experiment, parallel
from repro.harness.cache import FileLock, ShardedCache, open_cache
from repro.harness.experiment import RunResult, RunSpec
from repro.sim.config import Variant
from repro.sim.kernel import DeadlockError
from repro.sim.stats import Stats


# -- proc._invoke (the per-run timeout every fleet worker runs under) ---

def test_invoke_without_sigalrm_falls_back_to_plain_call(monkeypatch):
    # platforms without SIGALRM (e.g. Windows) run untimed, not crash
    monkeypatch.setattr(proc, "signal", types.SimpleNamespace())
    assert proc._invoke(lambda x: x + 1, 41, timeout=5.0) == 42


def test_invoke_without_timeout_runs_directly():
    assert proc._invoke(lambda x: x * 2, 21, timeout=None) == 42
    assert proc._invoke(lambda x: x * 2, 21, timeout=0) == 42


def test_invoke_timeout_raises_in_process():
    def slow(_payload):
        time.sleep(5.0)

    before = time.monotonic()
    with pytest.raises(parallel.RunTimeoutError):
        proc._invoke(slow, None, timeout=0.05)
    assert time.monotonic() - before < 2.0


# -- cache edge cases ---------------------------------------------------

def test_filelock_release_survives_missing_lock_file(tmp_path):
    lock = FileLock(str(tmp_path / "x.lock"))
    lock.acquire()
    os.unlink(lock.path)  # an impatient operator removed it by hand
    lock.release()  # must not raise
    assert lock._fd is None
    lock.release()  # and is idempotent


def _torn_store(tmp_path, text="{ torn json"):
    """A one-shard store whose single shard file holds ``text``."""
    cache = ShardedCache(str(tmp_path / "store"), n_shards=1)
    path = cache.shard_for("k").path
    with open(path, "w") as fh:
        fh.write(text)
    return cache, path


def test_quarantine_losing_the_move_race_stays_quiet(
    tmp_path, monkeypatch, caplog
):
    cache, _path = _torn_store(tmp_path)

    def lost_race(src, dst):
        raise OSError("moved by a concurrent process")

    monkeypatch.setattr("repro.harness.cache.os.replace", lost_race)
    with caplog.at_level(logging.WARNING, logger="repro.harness.cache"):
        assert cache.load_all() == {}
    assert not any(
        "quarantined" in record.getMessage() for record in caplog.records
    )


def test_quarantine_logs_a_warning_when_it_wins(tmp_path, caplog):
    cache, path = _torn_store(tmp_path)
    with caplog.at_level(logging.WARNING, logger="repro.harness.cache"):
        assert cache.load_all() == {}
    assert any(
        "quarantined" in record.getMessage() for record in caplog.records
    )
    assert not os.path.exists(path)


def test_quarantine_growth_is_capped(tmp_path, caplog):
    """A crash-looping writer cannot fill the disk with .corrupt files.

    Only the newest ``QUARANTINE_KEEP`` quarantined copies survive; the
    rest are pruned with a warning naming each victim.
    """
    from repro.harness.cache import QUARANTINE_KEEP

    rounds = QUARANTINE_KEEP + 4
    for round_no in range(rounds):
        cache, path = _torn_store(tmp_path, f"{{ torn json #{round_no}")
        with caplog.at_level(logging.WARNING, logger="repro.harness.cache"):
            assert cache.load_all() == {}
    corrupt = sorted(
        name for name in os.listdir(os.path.dirname(path))
        if name.startswith("shard-000.bin.corrupt.")
    )
    assert len(corrupt) == QUARANTINE_KEEP
    assert any(
        "pruned" in record.getMessage() for record in caplog.records
    )


# -- graceful degradation of failing runs -------------------------------

@pytest.fixture
def fake_runs(monkeypatch, tmp_path):
    """Engine stub under the compute step: 'streamcluster' deadlocks, the
    rest succeed in 1000 cycles."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_FAILFAST", raising=False)
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
    monkeypatch.setattr(experiment, "_memo", {})

    def fake_run(spec, key, config):
        if spec.workload == "streamcluster":
            raise DeadlockError("synthetic deadlock", cycle=123)
        return Stats(), 0, 1000

    monkeypatch.setattr(experiment, "_run_local", fake_run)
    return tmp_path


def test_run_matrix_degrades_failing_runs(fake_runs):
    out = run_matrix(16, [Variant.BASELINE], ["canneal", "streamcluster"])
    good = out[Variant.BASELINE]["canneal"]
    bad = out[Variant.BASELINE]["streamcluster"]
    assert not good.failed
    assert good.exec_cycles == 1000
    assert bad.failed
    assert bad.error_kind == "DeadlockError"
    assert "synthetic deadlock" in bad.error
    assert bad.exec_cycles == 0
    assert bad.crash_report is not None
    assert os.path.exists(bad.crash_report)
    with open(bad.crash_report) as fh:
        assert json.load(fh)["kind"] == "DeadlockError"


def test_run_matrix_fail_fast_restores_raising(fake_runs):
    with pytest.raises(DeadlockError):
        run_matrix(16, [Variant.BASELINE], ["canneal", "streamcluster"],
                   fail_fast=True)


def test_failure_results_are_not_disk_cached(fake_runs, monkeypatch):
    cache_path = str(fake_runs / "results")
    monkeypatch.setenv("REPRO_CACHE", cache_path)
    spec = RunSpec(16, Variant.BASELINE, "streamcluster", 1)
    result = experiment.run_experiment_safe(spec)
    assert result.failed
    stored = open_cache(cache_path).load_all()
    assert spec.scaled().key() not in stored


def test_failure_results_survive_json_roundtrip(fake_runs):
    spec = RunSpec(16, Variant.BASELINE, "streamcluster", 1)
    result = experiment.run_experiment_safe(spec)
    clone = RunResult.from_json(result.to_json())
    assert clone.failed
    assert clone.error_kind == "DeadlockError"


def test_a_failed_run_makes_every_table_cell_nan(monkeypatch):
    """Tables treat a failed run like the figures do: a mix over the
    surviving programs is not the table, so every value is NaN."""
    from repro.harness import tables

    monkeypatch.delenv("REPRO_SCALE", raising=False)
    monkeypatch.delenv("REPRO_FAILFAST", raising=False)
    monkeypatch.setattr(experiment, "_memo", {})
    programs = ["water_spatial", "blackscholes"]
    counters = {"msg.count.GETS": 40, "msg.count.L2_REPLY": 30,
                "msg.count.L1_DATA_ACK": 30,
                "circuit.reservation_ordinal.1": 7,
                "circuit.reservation_failed": 3}

    def memoise(workload, **outcome):
        for variant in (Variant.BASELINE, Variant.COMPLETE_NOACK):
            spec = RunSpec(16, variant, workload)
            experiment._memo[spec.key()] = RunResult(
                spec_key=spec.key(), n_cores=16, variant=variant.value,
                workload=workload, **outcome)

    memoise("water_spatial", exec_cycles=1000, counters=counters)
    memoise("blackscholes", exec_cycles=1000, counters=counters)
    for table in (tables.table1, tables.table5):
        assert all(value == value for value in table(programs, 16).values())
    memoise("blackscholes", exec_cycles=0, error="synthetic deadlock",
            error_kind="DeadlockError")
    for table in (tables.table1, tables.table5):
        values = table(programs, 16).values()
        assert values and all(value != value for value in values)


def test_a_failed_run_makes_its_figure6_and_figure7_rows_nan(monkeypatch):
    """Figs. 6 and 7 average per variant; a failed run's empty outcomes
    and means are not zeros, so the failed variant's row is NaN and the
    other rows keep their values."""
    from repro.harness import figures, render

    monkeypatch.delenv("REPRO_SCALE", raising=False)
    monkeypatch.delenv("REPRO_FAILFAST", raising=False)
    monkeypatch.setattr(experiment, "_memo", {})
    programs = ["water_spatial", "blackscholes"]
    sick = Variant.COMPLETE
    for variant in set(figures.FIG6_VARIANTS + figures.FIG7_VARIANTS):
        for workload in programs:
            spec = RunSpec(16, variant, workload)
            outcome = dict(exec_cycles=1000,
                           outcomes={"on_circuit": 0.5, "failed": 0.5},
                           means={"lat.net.req": 10.0, "lat.queue.req": 2.0})
            if variant is sick and workload == "blackscholes":
                outcome = dict(exec_cycles=0, error="synthetic deadlock",
                               error_kind="DeadlockError")
            experiment._memo[spec.key()] = RunResult(
                spec_key=spec.key(), n_cores=16, variant=variant.value,
                workload=workload, **outcome)

    fig6 = figures.figure6(programs, 16)
    fig7 = figures.figure7(programs, 16)
    for row in (fig6[sick.value], fig7[sick.value]):
        flat = [v for value in row.values()
                for v in (value if isinstance(value, tuple) else [value])]
        assert flat and all(value != value for value in flat)
    assert fig6[Variant.COMPLETE_NOACK.value]["on_circuit"] == 0.5
    assert fig7[Variant.COMPLETE_NOACK.value]["req"][:2] == (10.0, 2.0)
    assert "nan" in render.render_figure6(fig6)
    assert "nan" in render.render_figure7(fig7)
