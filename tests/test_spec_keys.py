"""Batch keying (:func:`repro.harness.experiment.spec_keys`).

A batch resolves ``REPRO_SCALE`` / ``REPRO_TOPOLOGY`` once and keys
every spec exactly as ``spec.scaled().key()`` does, or raises the same
:class:`~repro.config.ConfigError` (a malformed setting, a core count
the topology cannot tile), so stored keys stay byte-identical; a warm
``api.submit`` resolves them a constant number of times, whatever the
batch size.
"""

import os
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro import config as repro_config
from repro.config import ConfigError
from repro.cpu.workloads import ALL_WORKLOADS
from repro.harness import experiment
from repro.harness.cache import open_cache
from repro.harness.experiment import RunResult, RunSpec, spec_keys
from repro.noc.topology import topology_grid_side
from repro.sim.config import Variant

TOPOLOGIES = ["", "mesh", "torus", "cmesh"]

#: Core counts that tile every topology (4 * k^2 is a square too).
TILING_CORES = st.integers(1, 8).map(lambda k: 4 * k * k)


def specs_of(n_cores):
    return st.lists(st.builds(
        RunSpec,
        n_cores=n_cores,
        variant=st.sampled_from(list(Variant)),
        workload=st.sampled_from([w.name for w in ALL_WORKLOADS]),
        seed=st.integers(0, 10**6),
        measure_instructions=st.integers(1, 10**6),
        warmup_instructions=st.integers(1, 10**6),
        topology=st.sampled_from(TOPOLOGIES),
    ), max_size=12)


specs_strategy = specs_of(TILING_CORES)


@contextmanager
def _env(**values):
    """Set (a string) or unset (None) environment variables for the block."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in values.items():
            if value is None:
                patch.delenv(name, raising=False)
            else:
                patch.setenv(name, value)
        yield


def _outcome(keying, specs):
    """``("keys", [...])`` or ``("error", (message, setting, source))``."""
    try:
        return "keys", keying(specs)
    except ConfigError as exc:
        return "error", (str(exc), exc.setting, exc.source)


def _one_by_one(specs):
    return [spec.scaled().key() for spec in specs]


@settings(max_examples=200, deadline=None)
@given(specs=specs_strategy,
       scale=st.sampled_from([None, "1.0", "0.07", "0.15", "2.5"]),
       topology=st.sampled_from([None, "mesh", "torus", "cmesh"]))
def test_batch_keys_equal_one_by_one_keys(specs, scale, topology):
    with _env(REPRO_SCALE=scale, REPRO_TOPOLOGY=topology):
        batch = _outcome(spec_keys, specs)
        assert batch == _outcome(_one_by_one, specs)
    assert batch[0] == "keys"


def _tiles(topology, n_cores):
    try:
        topology_grid_side(topology, n_cores)
    except ConfigError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(specs=specs_of(st.integers(1, 256)),
       topology=st.sampled_from([None, "mesh", "torus", "cmesh"]))
def test_a_core_count_that_does_not_tile_fails_the_same_from_both(
        specs, topology):
    with _env(REPRO_SCALE="0.15", REPRO_TOPOLOGY=topology):
        batch = _outcome(spec_keys, specs)
        assert batch == _outcome(_one_by_one, specs)
    tiled = all(_tiles(spec.topology or topology or "mesh", spec.n_cores)
                for spec in specs)
    assert batch[0] == ("keys" if tiled else "error")
    if not tiled:
        assert batch[1][1:] == ("n_cores", "n_cores")


def test_a_spec_that_does_not_tile_its_topology_has_no_key():
    spec = RunSpec(15, Variant.BASELINE, "canneal")
    for specs in ([spec], [RunSpec(16, Variant.BASELINE, "fft"), spec]):
        outcome = _outcome(spec_keys, specs)
        assert outcome == _outcome(_one_by_one, specs)
        assert outcome[0] == "error" and "perfect square" in outcome[1][0]


@settings(max_examples=100, deadline=None)
@given(specs=specs_strategy.filter(bool),
       scale=st.sampled_from([None, "banana", "0", "-1", "nan"]),
       topology=st.sampled_from([None, "ring", "hypercube"]))
def test_malformed_env_raises_the_same_error_from_both(specs, scale,
                                                       topology):
    with _env(REPRO_SCALE=scale, REPRO_TOPOLOGY=topology):
        batch = _outcome(spec_keys, specs)
        assert batch == _outcome(_one_by_one, specs)
    # REPRO_TOPOLOGY is read only for a spec that defers to it.
    reads_topology = any(spec.topology == "" for spec in specs)
    expect_error = scale is not None or (topology is not None
                                         and reads_topology)
    assert (batch[0] == "error") == expect_error


def test_a_spec_topology_typo_names_the_config_field():
    specs = [RunSpec(16, Variant.BASELINE, "fft", topology="ring")]
    assert _outcome(spec_keys, specs) == _outcome(_one_by_one, specs)
    assert _outcome(spec_keys, specs)[1][2] == "config.noc.topology"


def test_empty_batch_reads_nothing(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "banana")
    assert spec_keys([]) == []


def _resolutions_of_warm_submit(n, monkeypatch):
    """``Counter`` of settings resolved by a warm ``api.submit`` of ``n``
    stored specs (every resolve goes through ``repro.config._resolve``)."""
    grid = [(variant, w.name) for variant in Variant for w in ALL_WORKLOADS]
    specs = [RunSpec(16, *grid[i % len(grid)], seed=1 + i // len(grid))
             for i in range(n)]
    open_cache(os.environ["REPRO_CACHE"]).store_many({
        key: RunResult(spec_key=key, n_cores=16, variant=spec.variant.value,
                       workload=spec.workload, exec_cycles=1000).to_json()
        for spec, key in zip(specs, _one_by_one(specs))
    })
    counts: Counter = Counter()
    resolve = repro_config._resolve

    def counted(name, *args, **kwargs):
        counts[name] += 1
        return resolve(name, *args, **kwargs)

    with experiment.fresh_memo(), monkeypatch.context() as patch:
        patch.setattr(repro_config, "_resolve", counted)
        results = api.results(api.submit(specs, jobs=1))
    assert [r.spec_key for r in results] == _one_by_one(specs)
    assert all(r.exec_cycles == 1000 for r in results)
    return counts


def test_warm_submit_resolves_scale_and_topology_once_per_batch(
        tmp_path, monkeypatch):
    for var in ("REPRO_SERVICE", "REPRO_JOBS", "REPRO_TOPOLOGY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store") + os.sep)
    monkeypatch.setenv("REPRO_SCALE", "0.15")
    small = _resolutions_of_warm_submit(16, monkeypatch)
    large = _resolutions_of_warm_submit(256, monkeypatch)
    for name in ("scale", "topology"):
        assert small[name] == large[name] == 1, (small, large)
