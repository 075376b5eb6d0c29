"""Parallel experiment engine and the crash-safe shared result cache."""

import multiprocessing
import os
import time

import pytest
from tests.conftest import surviving_pids

from repro.harness import experiment, parallel
from repro import config
from repro.api import run_matrix
from repro.harness.cache import (
    SCHEMA_VERSION,
    CacheLockTimeout,
    FileLock,
    ShardedCache,
    decode_shard,
    encode_shard,
    open_cache,
)
from repro.harness.experiment import (
    RunSpec,
    _memo,
    default_workloads,
    run_experiment,
)
from repro.sim.config import Variant

SMALL = dict(measure_instructions=250, warmup_instructions=80)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Isolate every test from ambient REPRO_* settings."""
    for var in ("REPRO_SCALE", "REPRO_FULL", "REPRO_CACHE", "REPRO_JOBS"):
        monkeypatch.delenv(var, raising=False)


# ---------------------------------------------------------------------------
# env-var validation (REPRO_JOBS / REPRO_SCALE / REPRO_FULL)


def test_resolve_jobs_env(monkeypatch):
    assert parallel.resolve_jobs() == 1
    assert parallel.resolve_jobs(default=0) == (os.cpu_count() or 1)
    assert parallel.resolve_jobs(3) == 3
    assert parallel.resolve_jobs(0) == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert parallel.resolve_jobs() == 5
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert parallel.resolve_jobs() == (os.cpu_count() or 1)


def test_resolve_jobs_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        parallel.resolve_jobs()
    monkeypatch.setenv("REPRO_JOBS", "-2")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        parallel.resolve_jobs()
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        parallel.resolve_jobs(-1)


def test_scale_env_validation(monkeypatch):
    for bad in ("banana", "0", "-1", "inf", "nan"):
        monkeypatch.setenv("REPRO_SCALE", bad)
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            config.resolve("scale")
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert config.resolve("scale") == 0.5
    monkeypatch.delenv("REPRO_SCALE")
    assert config.resolve("scale") == 1.0


def test_full_env_validation(monkeypatch):
    monkeypatch.setenv("REPRO_FULL", "maybe")
    with pytest.raises(ValueError, match="REPRO_FULL"):
        default_workloads()
    monkeypatch.setenv("REPRO_FULL", "YES")
    assert len(default_workloads()) == 22
    monkeypatch.setenv("REPRO_FULL", "off")
    assert len(default_workloads()) == 6


# ---------------------------------------------------------------------------
# generic engine behaviour (crash retry, timeout) via scripted workers


def _scripted_worker(payload):
    """Crash on first attempt if given a sentinel path, else double."""
    sentinel, value = payload
    if sentinel and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(17)  # simulate a segfaulting / OOM-killed worker
    return value * 2


def _always_crash(payload):
    os._exit(17)


def _sleep_forever(payload):
    time.sleep(60)
    return payload


def test_worker_crash_is_retried_once(tmp_path):
    sentinel = str(tmp_path / "crash.once")
    out = parallel.run_tasks(
        {"a": (sentinel, 1), "b": (None, 2)}, worker=_scripted_worker, jobs=2
    )
    assert out == {"a": 2, "b": 4}


def test_worker_crash_exhausts_retries():
    with pytest.raises(parallel.WorkerCrashError, match="died repeatedly"):
        parallel.run_tasks({"a": (None, 1)}, worker=_always_crash, jobs=1)


def test_per_run_timeout():
    started = time.monotonic()
    with pytest.raises(parallel.RunTimeoutError, match="timeout"):
        parallel.run_tasks(
            {"a": None}, worker=_sleep_forever, jobs=1, timeout=0.3
        )
    assert time.monotonic() - started < 30


def _kill_for_bad(payload):
    """Kill the worker process for the 'bad' key, succeed for the rest."""
    kind, path = payload
    if kind == "bad":
        os._exit(17)
    with open(path, "w") as f:
        f.write(kind)
    return kind


def test_pool_break_charges_only_running_task(tmp_path):
    """A poisonous task exhausts ITS retries; innocents are not charged.

    Regression: a broken pool used to charge an attempt to every
    still-pending task, so one configuration that kept killing its
    worker aborted runs that had never even started.
    """
    tasks = {
        "bad": ("bad", ""),
        "good-1": ("good-1", str(tmp_path / "good-1")),
        "good-2": ("good-2", str(tmp_path / "good-2")),
    }
    with pytest.raises(parallel.WorkerCrashError) as err:
        parallel.run_tasks(tasks, worker=_kill_for_bad, jobs=1,
                           crash_retries=0)
    # the error names the actual culprit, and only it
    assert "bad" in str(err.value)
    assert "good" not in str(err.value)
    # the innocent tasks were retried and ran to completion
    assert (tmp_path / "good-1").exists()
    assert (tmp_path / "good-2").exists()


def test_sigkilled_sweep_leaks_no_pool_workers(tmp_path):
    """SIGKILLing a ``--jobs N`` sweep must not strand its workers.

    Forked siblings hold duplicate pipe fds, so the dead parent never
    produces EOF; the workers' re-parenting check is their only exit
    (same contract as ``test_orphaned_workers_exit_when_coordinator_dies``).
    """
    import signal
    import subprocess
    import sys

    pidfile = str(tmp_path / "pids")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    program = (
        "import os, time\n"
        "from repro.harness import parallel\n"
        "def nap(path):\n"
        "    with open(path, 'a') as handle:\n"
        "        handle.write(f'{os.getpid()}\\n')\n"
        "    time.sleep(2)\n"
        f"parallel.run_tasks(dict.fromkeys('abcd', {pidfile!r}), nap, jobs=2)\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", program], env=env)
    pids = []
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and len(pids) < 2:
            time.sleep(0.1)
            if os.path.exists(pidfile):
                pids = [int(line) for line in open(pidfile) if line.strip()]
        assert len(set(pids)) == 2, "workers never recorded their pids"
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        # a 2 s task to finish, then the 1 s orphan poll; allow slack
        alive = surviving_pids(pids, timeout=20)
        assert not alive, f"leaked pool workers: {sorted(alive)}"
    finally:
        for pid in [proc.pid] + pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        proc.wait()


def _maybe_sleep(payload):
    if payload == "sleep":
        time.sleep(60)
    return payload


def test_progress_counts_timeouts():
    """Progress/ETA counts terminal outcomes, timeouts included.

    Regression: the progress callback only fired on the success path
    and 'done' excluded timed-out runs, so a sweep with timeouts
    reported a stale count and a wrong ETA.
    """
    messages = []
    with pytest.raises(parallel.RunTimeoutError):
        parallel.run_tasks(
            {"quick": "quick", "slow": "sleep"},
            worker=_maybe_sleep, jobs=2, timeout=0.5, echo=messages.append,
        )
    # both runs reached a terminal state, and the progress line said so
    assert any(msg.startswith("[repro] 2/2") for msg in messages), messages


# ---------------------------------------------------------------------------
# serial/parallel result equality


def test_run_specs_matches_serial_and_seeds_memo():
    specs = [
        RunSpec(16, Variant.BASELINE, "water_spatial", seed=1, **SMALL),
        RunSpec(16, Variant.COMPLETE_NOACK, "water_spatial", seed=1, **SMALL),
    ]
    _memo.clear()
    serial = {s.scaled().key(): run_experiment(s) for s in specs}
    _memo.clear()
    results = experiment.run_specs(specs, jobs=2)
    assert set(results) == set(serial)
    for key, result in results.items():
        assert result.to_json() == serial[key].to_json()
    # the memo was seeded, so serial assembly code gets memo hits
    assert run_experiment(specs[0]) is results[specs[0].scaled().key()]


def test_run_specs_serial_fallback_seeds_memo(monkeypatch):
    """The single-pending-spec fallback seeds the memo like the pool path.

    Regression: the serial branch returned the runner's result without
    writing ``experiment._memo[key]`` itself, silently relying on the
    runner's internal memoisation, while the pool branch seeded the
    memo explicitly.  run_specs' documented memo contract must hold for
    any runner on both paths.
    """
    spec = RunSpec(16, Variant.BASELINE, "water_spatial", seed=1, **SMALL)
    key = spec.scaled().key()
    stub_result = experiment.RunResult(
        spec_key=key, n_cores=16, variant=Variant.BASELINE.value,
        workload="water_spatial", exec_cycles=123,
    )

    def stub_compute(s, k, safe=False):
        return stub_result  # deliberately does NOT touch the memo

    monkeypatch.setattr(experiment, "_compute", stub_compute)
    _memo.clear()
    # one pending spec triggers the serial fallback even with jobs > 1
    results = experiment.run_specs([spec], jobs=4)
    assert results[key] is stub_result
    assert _memo.get(key) is stub_result
    _memo.clear()


def test_run_matrix_parallel_is_bit_identical(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SCALE", "0.08")  # tiny quanta, tiny warmup
    workloads = ["water_spatial", "blackscholes"]
    variants = [Variant.BASELINE, Variant.COMPLETE_NOACK, Variant.COMPLETE]
    _memo.clear()
    serial = run_matrix(16, variants, workloads)
    _memo.clear()
    monkeypatch.setenv("REPRO_JOBS", "4")
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "results"))
    par = run_matrix(16, variants, workloads)
    for variant in variants:
        for workload in workloads:
            assert (par[variant][workload].to_json()
                    == serial[variant][workload].to_json()), (variant, workload)
    # the six specs landed in the shared result store
    stored = open_cache(str(tmp_path / "results")).load_all()
    assert len(stored) == 6
    for variant in variants:
        for workload in workloads:
            result = par[variant][workload]
            assert stored[result.spec_key] == result.to_json()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_cold_batch_reads_the_store_once_then_merges_each_result(
        monkeypatch, tmp_path, jobs):
    """A cold batch of N misses parses the shards ``load_stored`` reads,
    plus one locked read-merge per stored result, serial or across
    workers: the compute step never reads the store again.  The engine is
    stubbed out, so nothing simulates."""
    from repro.harness import cache
    from repro.sim.stats import Stats

    parses = tmp_path / "parses"  # a file: worker processes append too
    load_all = cache._ShardFile.load_all

    def counted(shard):
        with open(parses, "a") as handle:
            handle.write(os.path.basename(shard.path) + "\n")
        return load_all(shard)

    monkeypatch.setattr(cache._ShardFile, "load_all", counted)
    monkeypatch.setattr(experiment, "_run_local",
                        lambda spec, key, config: (Stats(), 0, 1000))
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store") + os.sep)
    specs = [RunSpec(16, variant, workload)
             for variant in (Variant.BASELINE, Variant.COMPLETE_NOACK)
             for workload in default_workloads()]
    store = open_cache(os.environ["REPRO_CACHE"])
    routed = {store.shard_for(key).path
              for key in experiment.spec_keys(specs)}
    with experiment.fresh_memo():
        assert len(experiment.run_specs(specs, jobs=jobs)) == len(specs)
    assert len(parses.read_text().split()) == len(routed) + len(specs)
    assert len(store.load_all()) == len(specs)


def test_prefetch_forks_exactly_the_store_misses(monkeypatch, tmp_path):
    """Store hits resolve in the parent; only the misses reach workers,
    and both come back bit-identical to direct runs.  An observed spec
    never reaches a worker: its telemetry belongs to this process."""
    from repro import api
    from repro.telemetry import TelemetryConfig

    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
    stored = [RunSpec(16, Variant.BASELINE, "water_spatial", seed=s, **SMALL)
              for s in (1, 2)]
    missed = [RunSpec(16, Variant.COMPLETE_NOACK, "water_spatial", seed=s,
                      **SMALL) for s in (1, 2)]
    observed = RunSpec(16, Variant.FRAGMENTED, "water_spatial", seed=1,
                       telemetry=TelemetryConfig(
                           out_dir=str(tmp_path / "telemetry"),
                           trace_dir=str(tmp_path / "trace")),
                       **SMALL)
    _memo.clear()
    direct = {s.key(): run_experiment(s).to_json() for s in stored}
    _memo.clear()
    forked = []

    def in_parent(tasks, worker, **kwargs):
        forked.extend(tasks)
        return {key: worker(spec) for key, spec in tasks.items()}

    monkeypatch.setattr(parallel, "run_tasks", in_parent)
    api.prefetch(stored + missed + [observed], jobs=2)
    assert observed.key() not in forked
    assert sorted(forked) == sorted(s.key() for s in missed)
    for spec in stored:
        assert _memo[spec.key()].to_json() == direct[spec.key()]
    monkeypatch.delenv("REPRO_CACHE")
    for spec in missed:
        fresh = _memo.pop(spec.key())
        assert run_experiment(spec).to_json() == fresh.to_json()
    _memo.clear()


# ---------------------------------------------------------------------------
# crash-safe result store (one shard, so every key shares one file)


def _one_file_store(tmp_path):
    """A one-shard store and the path of its single shard file."""
    store = ShardedCache(str(tmp_path / "store"), n_shards=1)
    return store, tmp_path / "store" / "shard-000.bin"


def test_cache_quarantines_corrupt_file(tmp_path):
    store, path = _one_file_store(tmp_path)
    path.write_text("{ definitely not json")
    assert store.load("k") is None
    assert not path.exists()  # moved aside, not retried forever
    quarantined = list(path.parent.glob("shard-000.bin.corrupt.*"))
    assert len(quarantined) == 1
    assert quarantined[0].read_text() == "{ definitely not json"
    store.store("k", {"x": 1})  # a fresh, valid file replaces it
    data = decode_shard(path.read_bytes())
    assert data == {"schema": SCHEMA_VERSION, "entries": {"k": {"x": 1}}}


def test_cache_quarantines_unknown_schema(tmp_path):
    store, path = _one_file_store(tmp_path)
    path.write_bytes(encode_shard({"schema": 999, "entries": {"k": {}}}))
    assert store.load_all() == {}
    assert list(path.parent.glob("shard-000.bin.corrupt.*"))


def test_cache_quarantines_schemaless_file(tmp_path):
    """A file without a schema field is never reinterpreted as entries."""
    store, path = _one_file_store(tmp_path)
    flat = encode_shard({"old-key": {"x": 1}})
    path.write_bytes(flat)
    assert store.load("old-key") is None
    assert store.load_all() == {}
    [quarantined] = path.parent.glob("shard-000.bin.corrupt.*")
    assert quarantined.read_bytes() == flat  # the evidence survives
    store.store("new-key", {"y": 2})
    assert decode_shard(path.read_bytes()) == {
        "schema": SCHEMA_VERSION, "entries": {"new-key": {"y": 2}}}


def test_cache_merge_on_write(tmp_path):
    root = str(tmp_path / "store")
    open_cache(root).store("a", {"v": 1})
    open_cache(root).store("b", {"v": 2})
    assert open_cache(root).load_all() == {"a": {"v": 1}, "b": {"v": 2}}


def test_cache_drops_corrupt_entries_not_file(tmp_path):
    store, path = _one_file_store(tmp_path)
    path.write_bytes(encode_shard(
        {"schema": SCHEMA_VERSION,
         "entries": {"good": {"v": 1}, "bad": "not-a-dict"}}
    ))
    assert store.load_all() == {"good": {"v": 1}}
    assert path.exists()


def test_file_lock_times_out_then_breaks_stale(tmp_path):
    lock_path = str(tmp_path / "cache.json.lock")
    with FileLock(lock_path):
        contender = FileLock(lock_path, timeout=0.2, stale_seconds=60)
        with pytest.raises(CacheLockTimeout):
            contender.acquire()
    # a crashed writer's stale lock is broken instead of deadlocking
    open(lock_path, "w").close()
    os.utime(lock_path, (time.time() - 120, time.time() - 120))
    with FileLock(lock_path, timeout=5, stale_seconds=30):
        pass
    assert not os.path.exists(lock_path)
    # ... also when it turns stale only as the waiter's patience runs out
    # (a worker SIGKILLed holding it, the requeued run waiting on it)
    open(lock_path, "w").close()
    with FileLock(lock_path, timeout=0.3, stale_seconds=0.3):
        pass


def test_a_slow_breaker_leaves_the_lock_a_faster_one_took(
        tmp_path, monkeypatch):
    """Two waiters judge a dead writer's lock stale; the faster breaks it
    and takes the lock before the slower acts on its judgement.  The
    slower must leave the new lock alone, or both would write."""
    lock_path = str(tmp_path / "shard.lock")
    open(lock_path, "w").close()
    os.utime(lock_path, (time.time() - 120, time.time() - 120))
    fast = FileLock(lock_path, timeout=1, stale_seconds=30)
    slow = FileLock(lock_path, timeout=0.2, stale_seconds=30)
    real_stat = os.stat

    def judge_then_lose_the_race(path, *args, **kwargs):
        judged = real_stat(path, *args, **kwargs)
        if path == lock_path:
            monkeypatch.setattr(os, "stat", real_stat)
            fast.acquire()
        return judged

    monkeypatch.setattr(os, "stat", judge_then_lose_the_race)
    with pytest.raises(CacheLockTimeout):
        slow.acquire()
    assert fast._fd is not None and os.path.exists(lock_path)
    fast.release()
    assert sorted(os.listdir(tmp_path)) == []


def _hammer(root, start, count):
    store = open_cache(root)
    for i in range(start, start + count):
        store.store(f"key-{i}", {"value": i})


def test_cache_multiprocess_hammer(tmp_path):
    """>= 4 concurrent writers on one shard file lose nothing."""
    store, path = _one_file_store(tmp_path)
    workers = [
        multiprocessing.Process(target=_hammer,
                                args=(store.root, w * 20, 20))
        for w in range(5)
    ]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join(timeout=120)
    assert all(proc.exitcode == 0 for proc in workers)
    entries = open_cache(store.root).load_all()
    assert len(entries) == 100
    for i in range(100):
        assert entries[f"key-{i}"] == {"value": i}
    data = decode_shard(path.read_bytes())  # never a torn file
    assert data["schema"] == SCHEMA_VERSION
    assert len(data["entries"]) == 100
    assert not list(path.parent.glob("*.corrupt.*"))
