"""Experiment harness: runner, caching, table/figure builders, rendering."""

import json

import pytest

from repro.circuits.outcomes import (
    OUTCOME_ORDER,
    ReplyOutcome,
    outcome_counts,
    outcome_fractions,
)
from repro.api import run_matrix
from repro.harness import figures, render, tables
from repro.harness.experiment import (
    RunResult,
    RunSpec,
    _memo,
    default_workloads,
    fresh_memo,
    run_experiment,
)
from repro.sim.config import Variant
from repro.sim.stats import Stats
from repro.validate.conformance import Cell

SMALL = dict(measure_instructions=250, warmup_instructions=80)
WLS = ["water_spatial"]


def spec(variant=Variant.BASELINE, workload="water_spatial", cores=16):
    return RunSpec(cores, variant, workload, seed=1, **SMALL)


def test_run_experiment_produces_measurements():
    result = run_experiment(spec())
    assert result.exec_cycles > 0
    assert result.counter("noc.msgs_delivered") > 0
    assert result.mean("lat.net.req") > 0
    assert result.variant == "Baseline"


def test_run_experiment_is_memoised():
    a = run_experiment(spec())
    b = run_experiment(spec())
    assert a is b


def test_fresh_memo_forces_a_real_run_then_restores():
    kept = run_experiment(spec())
    with fresh_memo():
        assert not _memo
        again = run_experiment(spec())
        assert again is not kept
        assert again.to_json() == kept.to_json()
    assert run_experiment(spec()) is kept  # the block's own result is gone
    with pytest.raises(RuntimeError):
        with fresh_memo():
            raise RuntimeError("boom")
    assert run_experiment(spec()) is kept


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    monkeypatch.setenv("REPRO_CACHE", str(path))
    s = spec(Variant.COMPLETE)
    first = run_experiment(s)
    assert path.exists()
    _memo.clear()
    second = run_experiment(s)
    assert second.exec_cycles == first.exec_cycles
    assert second.counters == first.counters


def test_scale_env_changes_spec(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "2.0")
    scaled = RunSpec(16, Variant.BASELINE, "mix").scaled()
    assert scaled.measure_instructions == 6000
    monkeypatch.setenv("REPRO_SCALE", "1.0")


def test_default_workloads_subset_and_full(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    subset = default_workloads()
    assert "canneal" in subset and len(subset) == 6
    assert len(default_workloads(full=True)) == 22


def test_run_matrix_shape():
    out = run_matrix(16, [Variant.BASELINE], WLS)
    assert set(out) == {Variant.BASELINE}
    assert set(out[Variant.BASELINE]) == set(WLS)


def test_outcome_fractions_sum_to_one():
    stats = Stats()
    stats.bump("circuit.outcome.on_circuit", 6)
    stats.bump("circuit.outcome.failed", 2)
    stats.bump("circuit.outcome.eliminated", 2)
    fractions = outcome_fractions(stats)
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert fractions[ReplyOutcome.ON_CIRCUIT] == 0.6
    assert outcome_counts(stats)[ReplyOutcome.FAILED] == 2


def test_outcome_fractions_empty():
    fractions = outcome_fractions(Stats())
    assert all(v == 0 for v in fractions.values())


def test_table6_is_pure_model():
    rows = tables.table6()
    assert set(rows) == set(tables.TABLE6_PAPER)
    assert rows[("Fragmented", 16)] < 0 < rows[("Complete", 16)]


def test_render_helpers_produce_tables():
    t6 = render.render_table6(tables.table6(), tables.TABLE6_PAPER)
    assert "Fragmented" in t6 and "paper" in t6
    fig = render.render_ratio_figure({"X": (1.05, 0.01)}, "speedup")
    assert "1.050" in fig
    f10 = render.render_figure10({"canneal": 1.08})
    assert "+8.0%" in f10


def test_render_figure6_lists_all_outcomes():
    data = {"Complete": {o.value: 0.1 for o in OUTCOME_ORDER}}
    text = render.render_figure6(data)
    for outcome in OUTCOME_ORDER:
        assert outcome.value in text


def test_result_json_roundtrip():
    result = run_experiment(spec())
    clone = RunResult.from_json(json.loads(json.dumps(result.to_json())))
    assert clone.exec_cycles == result.exec_cycles
    assert clone.counters == result.counters


def test_figure9_contains_every_variant_speedup():
    # use the memoised tiny runs: restrict to one workload for speed
    data = figures.figure9(WLS, 16)
    assert set(data) == {v.value for v in figures.FIG9_VARIANTS}
    for _variant, (mean, err) in data.items():
        assert 0.5 < mean < 2.0
        assert err >= 0


def test_figure8_normalised_to_baseline():
    data = figures.figure8(WLS, 16)
    assert data["Baseline"] == (1.0, 0.0)
    for variant, (mean, _err) in data.items():
        assert 0.3 < mean < 2.0


def test_figure7_reports_three_classes():
    data = figures.figure7(WLS, 16)
    for variant, classes in data.items():
        assert set(classes) == {"req", "crep", "norep"}


def test_figure6_fractions_bounded():
    data = figures.figure6(WLS, 16)
    for variant, outcomes in data.items():
        assert 0.0 <= sum(outcomes.values()) <= 1.0 + 1e-9


def test_figure10_per_workload():
    data = figures.figure10(WLS, 16)
    assert set(data) == set(WLS)


def test_run_result_carries_latency_percentiles():
    result = run_experiment(spec(Variant.COMPLETE_NOACK))
    p50 = result.mean("lat.net.crep.p50")
    p95 = result.mean("lat.net.crep.p95")
    p99 = result.mean("lat.net.crep.p99")
    assert 0 < p50 <= p95 <= p99
    # tail latency is at least the median, and mean sits near the middle
    assert p99 >= result.mean("lat.net.crep") * 0.8
    # the full distribution rides along: percentile() answers any p
    assert result.histogram("lat.net.crep").count > 0
    assert result.percentile("lat.net.crep", 95) == p95
    assert result.percentile("lat.net.crep", 50) <= result.percentile(
        "lat.net.crep", 99.9
    )


# ---------------------------------------------------------------------------
# Every execution engine behind run_experiment yields the same result.
# ---------------------------------------------------------------------------
ENGINE_CELL = Cell(Variant.REUSE_NOACK, "canneal", 250, warmup=80, seed=3,
                   paper_caches=True)
ENGINE_SPEC = ENGINE_CELL.spec()
ENGINE_ENV = ("REPRO_SHARDS", "REPRO_CACHE", "REPRO_SCALE", "REPRO_CHECK",
              "REPRO_TOPOLOGY")


def _run_engine(spec):
    _memo.clear()
    try:
        return json.dumps(run_experiment(spec).to_json(), sort_keys=True)
    finally:
        _memo.clear()


#: Engine -> the conformance-matrix mode that picks it through the
#: ``REPRO_*`` settings a user would export.
ENGINE_MODES = {
    "plain": "api", "shards2": "api+shards2",
    "observed": "api+observed", "daemon": "daemon",
}


@pytest.mark.parametrize("engine", list(ENGINE_MODES))
def test_every_engine_yields_the_same_result(engine, pinned):
    """plain = 2 shards = observed = served by a job daemon."""
    pinned(ENGINE_CELL, ENGINE_MODES[engine])


def test_checked_run_builds_no_directory_line(monkeypatch):
    """``REPRO_CHECK=1`` is read-only down to the cache arrays: the
    monitor sweeps every L2 bank, yet the checked run ends with exactly
    the lines the plain run built (a default line cannot be busy, so it
    is never read) and the same result, byte for byte."""
    from repro import system

    systems = []
    real_build = system.build_system

    def build_system(*args):
        systems.append(real_build(*args))
        return systems[-1]

    monkeypatch.setattr(system, "build_system", build_system)
    for name in ENGINE_ENV:
        monkeypatch.delenv(name, raising=False)
    plain = _run_engine(ENGINE_SPEC)
    monkeypatch.setenv("REPRO_CHECK", "1")
    monkeypatch.setenv("REPRO_CHECK_INTERVAL", "200")
    assert _run_engine(ENGINE_SPEC) == plain

    def lines(built):
        arrays = [tile.l2.array for tile in built.tiles]
        return (sum(1 for array in arrays
                    for _ in array.items(defaults=False)),
                sum(array.occupancy() for array in arrays))

    plain_lines, checked_lines = map(lines, systems)
    assert checked_lines == plain_lines
    built, resident = plain_lines
    assert 0 < built < resident // 4
