"""The public facade (:mod:`repro.api`): both modes, streaming.

In-process mode runs real (tiny) simulations; daemon mode boots a real
:class:`repro.service.Daemon` on a unix socket and asserts the facade
returns bit-identical results and seeds the local memo either way.
"""

import os
import weakref

import pytest

from repro import api
from repro.config import ConfigError
from repro.harness import experiment
from repro.harness.experiment import RunResult, RunSpec
from repro.sim.config import Variant
from repro.telemetry import TelemetryConfig

SMALL = dict(measure_instructions=250, warmup_instructions=80)


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    for var in ("REPRO_SCALE", "REPRO_FULL", "REPRO_JOBS", "REPRO_CACHE",
                "REPRO_SERVICE", "REPRO_SERVICE_WORKERS", "REPRO_FAILFAST"):
        monkeypatch.delenv(var, raising=False)
    with experiment.fresh_memo():
        yield


@pytest.fixture
def daemon_address(tmp_path, monkeypatch):
    """A live daemon, selected through REPRO_SERVICE like production."""
    from repro.service import Daemon

    env = dict(os.environ, REPRO_CACHE=str(tmp_path / "store") + os.sep)
    daemon = Daemon(str(tmp_path / "repro.sock"), workers=2, env=env)
    daemon.start()
    monkeypatch.setenv("REPRO_SERVICE", daemon.address)
    yield daemon.address
    daemon.shutdown()


def _spec(seed=1, variant=Variant.BASELINE, **extra):
    return RunSpec(16, variant, "canneal", seed, **SMALL, **extra)


# ----------------------------------------------------------------------
# In-process mode.
# ----------------------------------------------------------------------

def test_submit_in_process_matches_direct_run():
    spec = _spec()
    handle = api.submit([spec])
    assert len(handle) == 1
    [status] = api.status(handle)
    assert status["state"] == "done"
    [result] = api.results(handle)
    assert result.to_json() == experiment.run_experiment(spec).to_json()


def test_run_one_shot():
    spec = _spec(seed=2)
    assert api.run(spec).to_json() == \
        experiment.run_experiment(spec).to_json()


def test_stream_metrics_in_process_replays_buffered_series(tmp_path):
    telemetry = TelemetryConfig(
        metrics=True, spans=False, profile=False, interval=50,
        out_dir=str(tmp_path / "telemetry"),
        trace_dir=str(tmp_path / "trace"),
    )
    handle = api.submit([_spec(telemetry=telemetry)])
    samples = list(api.stream_metrics(handle))
    assert samples, "observed run produced no samples"
    key = handle.keys[0]
    cycles = [cycle for _, cycle, _ in samples]
    assert all(k == key for k, _, _ in samples)
    assert cycles == sorted(cycles)
    assert all(isinstance(values, dict) and values
               for _, _, values in samples)


def test_observed_submit_is_not_swallowed_by_the_memo(tmp_path):
    # Regression: the safe runner consulted the memo before
    # run_experiment could apply its "observed runs bypass the cache
    # read" rule, so an observed submit after a plain run of the same
    # spec simulated nothing and streamed nothing.
    telemetry = TelemetryConfig(
        metrics=True, spans=False, profile=False, interval=50,
        out_dir=str(tmp_path / "telemetry"),
        trace_dir=str(tmp_path / "trace"),
    )
    plain = api.run(_spec())
    handle = api.submit([_spec(telemetry=telemetry)])
    assert list(api.stream_metrics(handle)), "memo hit swallowed the run"
    assert api.results(handle)[0].to_json() == plain.to_json()


def test_plain_specs_produce_no_stream():
    handle = api.submit([_spec(seed=3)])
    assert list(api.stream_metrics(handle)) == []


def test_safe_runner_scales_exactly_once(monkeypatch):
    # Regression: run_experiment_safe used to scale the spec and then
    # call run_experiment, which scales again -- so with REPRO_SCALE set
    # the in-process facade simulated a double-shrunk run and diverged
    # from the daemon (whose client scales exactly once, at submit).
    monkeypatch.setenv("REPRO_SCALE", "0.08")
    spec = RunSpec(16, Variant.BASELINE, "canneal", 7)
    result = experiment.run_experiment_safe(spec)
    assert result.spec_key == spec.scaled().key()
    assert result.spec_key != spec.scaled().scaled().key()  # not idempotent
    assert result.to_json() == experiment.run_experiment(spec).to_json()


@pytest.fixture
def chips(monkeypatch):
    """Weak references to the chips ``repro.system.build_system`` builds."""
    from repro import system

    refs = []
    build = system.build_system

    def tracked(*args, **kwargs):
        chip = build(*args, **kwargs)
        refs.append(weakref.ref(chip))
        return chip

    monkeypatch.setattr(system, "build_system", tracked)
    return refs


def test_a_computed_run_frees_its_chip_before_it_returns(chips):
    """A finished chip is cyclic garbage; the compute step collects it,
    so the next run's chip is not built beside it."""
    api.run(_spec(seed=4))
    assert len(chips) == 1 and chips[0]() is None


def test_a_failed_safe_run_frees_its_chip_before_it_returns(chips, tmp_path,
                                                             monkeypatch):
    """The caught error's traceback reaches the chip; it is freed all the
    same, and the failure result is returned."""
    from repro.sim.kernel import DeadlockError
    from repro.system import CmpSystem

    def stalls(self, *args, **kwargs):
        raise DeadlockError(f"{type(self).__name__} stalled", cycle=0)

    monkeypatch.setattr(CmpSystem, "run_script", stalls)
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
    result = experiment.run_experiment_safe(_spec(seed=5))
    assert result.failed and result.error_kind == "DeadlockError"
    assert result.error == "CmpSystem stalled"
    assert len(chips) == 1 and chips[0]() is None


def test_an_unknown_program_is_refused_before_anything_runs(monkeypatch):
    """A batch naming an unknown program raises the typed error while
    its misses are grouped, before any of them is computed."""
    computed = []
    monkeypatch.setattr(experiment, "_compute",
                        lambda *args: computed.append(args))
    with pytest.raises(ConfigError, match="cannneal.*canneal") as err:
        api.submit([_spec(), RunSpec(16, Variant.BASELINE, "cannneal", 1,
                                     200, 100)])
    assert err.value.setting == "workload"
    with pytest.raises(ConfigError, match="cannneal"):
        experiment.run_experiment_safe(
            RunSpec(16, Variant.BASELINE, "cannneal", 1, 200, 100))
    assert computed == []


@pytest.fixture
def warm_store(tmp_path, monkeypatch):
    """Three specs simulated into a fresh store (two seeds of one cell, so
    one shard holds two of them); returns the specs and their results'
    JSON, with the memo emptied."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store") + os.sep)
    specs = [_spec(seed=1), _spec(seed=2),
             _spec(variant=Variant.COMPLETE_NOACK)]
    direct = [experiment.run_experiment(spec).to_json() for spec in specs]
    experiment._memo.clear()
    return specs, direct


def test_submit_parses_each_store_shard_once(warm_store, shard_reads):
    specs, direct = warm_store
    assert [r.to_json() for r in api.results(api.submit(specs))] == direct
    assert shard_reads and max(shard_reads.values()) == 1


def test_prefetch_of_stored_results_starts_no_worker(warm_store,
                                                     monkeypatch):
    from repro.harness import parallel

    specs, direct = warm_store

    def no_workers(*args, **kwargs):
        raise AssertionError("prefetch forked for stored results")

    monkeypatch.setattr(parallel, "run_tasks", no_workers)
    api.prefetch(specs, jobs=2)
    assert [experiment._memo[s.key()].to_json() for s in specs] == direct


def test_incompatible_stored_entry_is_a_miss_on_both_paths(warm_store):
    """An entry of another RunResult shape (``TypeError``: an unknown or
    a missing required field) is a miss for a batch read and for a
    one-spec read (the same ``load_stored``); submit re-simulates it.  An
    entry that lacks only optional fields is a hit that takes their
    defaults."""
    from repro.harness.cache import open_cache

    specs, direct = warm_store
    unknown, older, partial = (spec.key() for spec in specs)
    open_cache(os.environ["REPRO_CACHE"]).store_many({
        unknown: dict(direct[0], field_of_another_build=1),
        older: {k: v for k, v in direct[1].items() if k != "crash_report"},
        partial: {k: v for k, v in direct[2].items() if k != "exec_cycles"},
    })
    experiment.load_stored({spec.key(): spec for spec in specs})
    assert unknown not in experiment._memo
    assert partial not in experiment._memo
    assert experiment._memo[older].to_json() == direct[1]
    experiment._memo.clear()
    for key, spec in zip((unknown, older, partial), specs):
        hit = key == older
        assert experiment.load_stored({key: spec}) == ({} if hit
                                                       else {key: spec})
        assert (key in experiment._memo) == hit
    assert experiment._memo[older].to_json() == direct[1]
    experiment._memo.clear()
    assert [r.to_json() for r in api.results(api.submit(specs))] == direct


def test_map_tasks_runs_locally():
    done = api.map_tasks({"a": 2, "b": 5}, worker=_triple, jobs=None)
    assert done == {"a": 6, "b": 15}


def _triple(payload):
    return payload * 3


# ----------------------------------------------------------------------
# Sweep helpers and deprecation shims.
# ----------------------------------------------------------------------

def _fake_runner(calls):
    def runner(spec, key, safe=False):
        calls.append(key)
        result = RunResult(
            spec_key=key, n_cores=spec.n_cores,
            variant=spec.variant.value, workload=spec.workload,
            exec_cycles=1000 + len(calls),
        )
        experiment._memo[key] = result
        return result
    return runner


def test_run_matrix_assembles_variant_by_workload(monkeypatch):
    calls = []
    runner = _fake_runner(calls)
    monkeypatch.setattr(experiment, "_compute", runner)
    out = api.run_matrix(16, [Variant.BASELINE, Variant.COMPLETE],
                         ["canneal", "fft"], seed=1)
    assert set(out) == {Variant.BASELINE, Variant.COMPLETE}
    assert set(out[Variant.BASELINE]) == {"canneal", "fft"}
    for variant, per in out.items():
        for workload, result in per.items():
            assert result.variant == variant.value
            assert result.workload == workload


def test_legacy_imports_still_resolve():
    import repro

    assert repro.run_matrix is api.run_matrix
    assert repro.compare_variants is api.compare_variants


# ----------------------------------------------------------------------
# Daemon mode: the same five calls against a live service.
# ----------------------------------------------------------------------

def test_daemon_failure_without_a_key_is_memoised_under_the_scaled_key(
        monkeypatch):
    """A ``failed`` row that carries no ``"key"`` stands in for the
    result under the key the daemon acknowledged at submit (the scaled
    one), where assembly looks it up."""
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    spec = RunSpec(16, Variant.BASELINE, "canneal", 3)
    key = spec.scaled().key()
    assert key != spec.key()

    class FakeClient:
        def submit(self, specs):
            return [{"job_id": "j1", "key": key, "state": "queued"}]

        def results(self, job_ids, timeout=None):
            return [{"job_id": "j1", "state": "failed",
                     "error": "worker kept dying"}]

    backend = api._DaemonBackend("unused.sock")
    backend.client = FakeClient()
    [result] = backend.results(backend.submit([spec]))
    assert result.failed and result.spec_key == key
    assert experiment._memo[key] is result


def test_daemon_mode_results_bit_identical_and_memo_seeded(daemon_address):
    spec = _spec(seed=4)
    assert api.service_address() == daemon_address
    handle = api.submit([spec])
    assert "daemon" in repr(handle)
    [result] = api.results(handle, timeout=300.0)
    assert result.spec_key in experiment._memo  # assembly reuses it
    # Reference computed afterwards, in-process, with a clean memo.
    del experiment._memo[result.spec_key]
    assert result.to_json() == experiment.run_experiment(spec).to_json()


def test_daemon_mode_stream_metrics(daemon_address, tmp_path):
    telemetry = TelemetryConfig(
        metrics=True, spans=False, profile=False, interval=50,
        out_dir=str(tmp_path / "telemetry"),
        trace_dir=str(tmp_path / "trace"),
    )
    handle = api.submit([_spec(telemetry=telemetry)])
    samples = list(api.stream_metrics(handle))
    assert samples
    assert all(key == handle.keys[0] for key, _, _ in samples)


def test_daemon_mode_run_matrix_parity(daemon_address, monkeypatch):
    # run_matrix uses the default quanta; shrink them for the test.  The
    # client scales at submit with this same environment, so the keys
    # (and results) agree with the local reference run.
    monkeypatch.setenv("REPRO_SCALE", "0.02")
    out = api.run_matrix(16, [Variant.BASELINE], ["canneal"], seed=5)
    daemon_result = out[Variant.BASELINE]["canneal"]
    experiment._memo.clear()
    reference = experiment.run_experiment(
        RunSpec(16, Variant.BASELINE, "canneal", 5))
    assert daemon_result.to_json() == reference.to_json()


def test_serial_cli_computes_every_run_on_the_daemon(daemon_address,
                                                     monkeypatch, capsys):
    """Regression: with ``REPRO_SERVICE`` set and no ``--jobs``, the CLI
    computed every run in its own process; the daemon's fleet must."""
    from repro.harness.__main__ import main
    from repro.service import ServiceClient

    monkeypatch.setenv("REPRO_SCALE", "0.02")
    programs = ["swaptions", "blackscholes"]
    monkeypatch.setattr("repro.harness.__main__.default_workloads",
                        lambda full=None: programs)
    assert main(["table1"]) == 0
    workers = ServiceClient(daemon_address).info()["workers"]
    assert sum(w["executed"] for w in workers) == len(programs)
    assert capsys.readouterr().out.startswith("Table 1")
