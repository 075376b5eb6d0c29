"""End-to-end tests of the job daemon (:mod:`repro.service`).

The daemon boots for real on a unix socket under ``tmp_path``, with a
sharded result store and forked workers.  The acceptance tests mirror
the service chaos scenarios: concurrent clients must observe results
bit-identical to direct ``run_experiment`` calls, and a worker SIGKILL
mid-job must be absorbed by requeue + respawn.
"""

import io
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from types import SimpleNamespace

import pytest

import repro
from repro import api
from repro import config as repro_config
from repro.config import ConfigError
from repro.harness import experiment, figures
from repro.harness.experiment import RunSpec, spec_keys
from repro.service import (
    DONE,
    FAILED,
    Daemon,
    ServiceClient,
    ServiceError,
    protocol,
)
from repro.sim.config import Variant
from repro.telemetry import TelemetryConfig

SMALL = dict(measure_instructions=250, warmup_instructions=80)


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    for var in ("REPRO_SCALE", "REPRO_FULL", "REPRO_JOBS", "REPRO_CACHE",
                "REPRO_SERVICE", "REPRO_SERVICE_WORKERS"):
        monkeypatch.delenv(var, raising=False)
    saved = dict(experiment._memo)
    experiment._memo.clear()
    yield
    experiment._memo.clear()
    experiment._memo.update(saved)


@pytest.fixture
def daemon(tmp_path):
    env = dict(os.environ,
               REPRO_CACHE=str(tmp_path / "store") + os.sep)
    d = Daemon(str(tmp_path / "repro.sock"), workers=2, env=env)
    d.start()
    yield d
    d.shutdown()


@pytest.fixture
def client(daemon):
    return ServiceClient(daemon.address)


def _direct(spec):
    """Bit-exact reference: the plain run_experiment code path."""
    return experiment.run_experiment(spec).to_json()


def test_info_reports_fleet(client, daemon):
    info = client.info()
    assert info["pid"] == os.getpid()
    assert len(info["workers"]) == 2
    assert all(w["alive"] for w in info["workers"])
    assert info["respawns"] == 0
    assert info["store"].rstrip(os.sep).endswith("store")
    assert client.ping()


def test_submit_result_bit_identical_to_direct_run(client):
    spec = RunSpec(16, Variant.BASELINE, "canneal", 1, **SMALL)
    [status] = client.submit([spec])
    assert status["state"] in ("queued", "running")
    [row] = client.results([status["job_id"]], timeout=300.0)
    assert row["state"] == DONE
    assert row["source"] == "run"
    assert row["attempts"] == 0
    assert row["result"] == _direct(spec)


def test_dedup_joins_queued_running_and_done(client):
    spec = RunSpec(16, Variant.COMPLETE, "canneal", 1, **SMALL)
    [first] = client.submit([spec])
    [second] = client.submit([spec])
    assert second["job_id"] == first["job_id"]
    [row] = client.results([first["job_id"]], timeout=300.0)
    assert row["state"] == DONE
    # Even after completion, a resubmission joins the finished job.
    [third] = client.submit([spec])
    assert third["job_id"] == first["job_id"]
    assert third["state"] == DONE


def test_observed_specs_never_dedup(client, tmp_path):
    telemetry = TelemetryConfig(
        metrics=True, spans=False, profile=False, interval=50,
        out_dir=str(tmp_path / "telemetry"),
        trace_dir=str(tmp_path / "trace"),
    )
    spec = RunSpec(16, Variant.BASELINE, "canneal", 1,
                   telemetry=telemetry, **SMALL)
    [a] = client.submit([spec])
    [b] = client.submit([spec])
    assert a["job_id"] != b["job_id"]
    client.results([a["job_id"], b["job_id"]], timeout=300.0)


def test_store_hit_served_without_simulation(client, daemon, tmp_path):
    spec = RunSpec(16, Variant.FRAGMENTED, "canneal", 1, **SMALL)
    [status] = client.submit([spec])
    [row] = client.results([status["job_id"]], timeout=300.0)
    daemon.shutdown()
    # A fresh daemon over the same store answers at submit time.
    second = Daemon(str(tmp_path / "b.sock"), workers=1, env=daemon.env)
    second.start()
    try:
        client2 = ServiceClient(second.address)
        [cached] = client2.submit([spec])
        assert cached["state"] == DONE
        assert cached["source"] == "cache"
        [row2] = client2.results([cached["job_id"]], wait=False)
        assert row2["result"] == row["result"]
        assert sum(w["executed"] for w in client2.info()["workers"]) == 0
    finally:
        second.shutdown()


def test_workers_keep_repro_scale_and_compute_the_acknowledged_key(
        tmp_path, monkeypatch):
    """``REPRO_SCALE`` stays in the workers' environment, yet only the
    client scales: :meth:`ServiceClient.submit` sends each spec explicit,
    the daemon keys it as written and the worker computes it under that
    key, so the job matches an in-process run of the same spec bit for
    bit."""
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    spec = RunSpec(16, Variant.COMPLETE_NOACK, "canneal", 2,
                   measure_instructions=500, warmup_instructions=200)
    key = spec.scaled().key()
    assert key not in (spec.key(), spec.scaled().scaled().key())
    d = Daemon(str(tmp_path / "repro.sock"), workers=1,
               env=dict(os.environ))
    assert d.env["REPRO_SCALE"] == "0.5"
    d.start()
    try:
        [status] = ServiceClient(d.address).submit([spec])
        assert status["key"] == key
        [row] = ServiceClient(d.address).results([status["job_id"]],
                                                 timeout=300.0)
    finally:
        d.shutdown()
    assert row["result"]["spec_key"] == key
    assert row["result"] == _direct(spec)


def test_the_daemon_and_its_worker_read_neither_scale_nor_topology(
        tmp_path, monkeypatch):
    """Downstream of the client's edge a spec is read as written: keying
    it at submit and computing it in a worker resolve neither
    ``REPRO_SCALE`` nor ``REPRO_TOPOLOGY`` from the environment."""
    from repro.service.daemon import _run_job

    monkeypatch.setenv("REPRO_SCALE", "0.2")
    monkeypatch.setenv("REPRO_TOPOLOGY", "cmesh")
    spec = RunSpec(16, Variant.BASELINE, "canneal", 1, **SMALL)
    [key] = spec_keys([spec])
    wire = protocol.spec_to_json(spec.scaled())  # the client's edge
    daemon = Daemon(str(tmp_path / "repro.sock"), workers=1,
                    env=dict(os.environ))  # never started: no fleet
    tasks = []
    daemon._fleet = SimpleNamespace(
        submit=lambda job_id, task: tasks.append(task))
    reads: Counter = Counter()
    resolve = repro_config._resolve

    def counted(name, override=None, default=None, source=None):
        if override is None:
            reads[name] += 1
        return resolve(name, override, default, source)

    with monkeypatch.context() as patch:
        patch.setattr(repro_config, "_resolve", counted)
        [row] = daemon.submit_specs([wire])
        result = _run_job(tasks[0], emit=lambda data: None)
    assert reads["scale"] == reads["topology"] == 0, reads
    assert row["key"] == result["spec_key"] == key
    assert key.endswith("/cmesh")


def test_a_daemon_process_computes_the_runs_its_client_names(
        tmp_path, monkeypatch):
    """A daemon booted at another ``REPRO_SCALE`` and ``REPRO_TOPOLOGY``
    than its client acknowledges the client's keys, so the figure that
    follows the prefetch computes nothing locally, and its results equal
    an in-process run's."""
    address = str(tmp_path / "repro.sock")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src, REPRO_SCALE="0.2",
               REPRO_TOPOLOGY="cmesh",
               REPRO_CACHE=str(tmp_path / "store") + os.sep)
    with open(tmp_path / "daemon.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness", "serve", "--socket",
             address, "--workers", "1"],
            env=env, stdout=log, stderr=subprocess.STDOUT)
    client = ServiceClient(address)
    try:
        deadline = time.monotonic() + 60.0
        while not client.ping():
            assert proc.poll() is None and time.monotonic() < deadline, \
                (tmp_path / "daemon.log").read_text()
            time.sleep(0.1)
        monkeypatch.setenv("REPRO_SCALE", "0.08")
        monkeypatch.delenv("REPRO_TOPOLOGY", raising=False)
        monkeypatch.setenv("REPRO_SERVICE", address)
        variants = [Variant.BASELINE, Variant.COMPLETE_NOACK]
        specs = [RunSpec(16, variant, "fft") for variant in variants]
        acknowledged, computed = [], []
        submit, compute = ServiceClient.submit, experiment._compute

        def recording_submit(self, batch):
            rows = submit(self, batch)
            acknowledged.extend(row["key"] for row in rows)
            return rows

        def counting_compute(*args, **kwargs):
            computed.append(args[1])
            return compute(*args, **kwargs)

        monkeypatch.setattr(ServiceClient, "submit", recording_submit)
        monkeypatch.setattr(experiment, "_compute", counting_compute)
        api.prefetch(specs)
        done = figures.cells(16, variants, ["fft"])
        via_daemon = [done[variant]["fft"].to_json() for variant in variants]
        assert acknowledged == spec_keys(specs)
        assert computed == []
    finally:
        try:
            client.shutdown()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    monkeypatch.delenv("REPRO_SERVICE")
    with experiment.fresh_memo():
        local = [experiment.run_experiment(spec).to_json()
                 for spec in specs]
    assert via_daemon == local


def test_warm_batch_is_served_from_one_read_per_shard(tmp_path, monkeypatch,
                                                     shard_reads):
    """A batch of stored specs: every job is a cache hit, statuses come
    back in submission order, each shard is parsed once, and the results
    are bit-identical to direct runs."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store") + os.sep)
    specs = [RunSpec(16, Variant.BASELINE, "canneal", seed, **SMALL)
             for seed in (3, 1, 2)]
    specs.append(RunSpec(16, Variant.COMPLETE_NOACK, "canneal", 1, **SMALL))
    direct = [_direct(spec) for spec in specs]
    shard_reads.clear()
    # Never started: a warm batch must not need the fleet.
    daemon = Daemon(str(tmp_path / "repro.sock"), workers=1,
                    env=dict(os.environ))
    rows = daemon.submit_specs([protocol.spec_to_json(s) for s in specs])
    assert [row["key"] for row in rows] == [s.key() for s in specs]
    assert {(row["state"], row["source"]) for row in rows} == {
        (DONE, "cache")}
    assert shard_reads and max(shard_reads.values()) == 1
    assert [daemon.jobs.get(row["job_id"]).result for row in rows] == direct


def test_concurrent_clients_get_bit_identical_results(daemon):
    specs = [RunSpec(16, Variant.BASELINE, "canneal", seed, **SMALL)
             for seed in (1, 2, 3, 4)]
    outcomes = {}
    errors = []

    def one_client(idx):
        try:
            client = ServiceClient(daemon.address)
            # Reversed order for odd clients: submission order must not
            # matter once dedup folds the batches together.
            batch = list(reversed(specs)) if idx % 2 else list(specs)
            statuses = client.submit(batch)
            rows = client.results([s["job_id"] for s in statuses],
                                  timeout=600.0)
            outcomes[idx] = {row["key"]: row["result"] for row in rows}
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append((idx, exc))

    threads = [threading.Thread(target=one_client, args=(i,))
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    assert not errors
    assert len(outcomes) == 4
    reference = {spec.key(): _direct(spec) for spec in specs}
    for idx, per_client in outcomes.items():
        assert per_client == reference, f"client {idx} diverged"
    # Dedup means the fleet simulated each spec exactly once.
    info = ServiceClient(daemon.address).info()
    assert info["jobs"] == {DONE: len(specs)}


def test_worker_sigkill_mid_job_requeues_bit_identical(client):
    spec = RunSpec(16, Variant.REUSE_NOACK, "canneal", 5,
                   measure_instructions=2500, warmup_instructions=300)
    [status] = client.submit([spec])
    job_id = status["job_id"]
    victim = None
    deadline = time.time() + 60
    while time.time() < deadline:
        busy = [w for w in client.info()["workers"]
                if w["current"] == job_id and w["alive"]]
        if busy:
            victim = busy[0]["pid"]
            break
        state = client.status([job_id])[0]["state"]
        assert state not in (DONE, FAILED), \
            f"job finished ({state}) before the kill landed"
        time.sleep(0.01)
    assert victim is not None, "job never started running"
    os.kill(victim, signal.SIGKILL)
    [row] = client.results([job_id], timeout=600.0)
    assert row["state"] == DONE
    assert row["attempts"] == 1  # exactly one requeue
    assert client.info()["respawns"] == 1
    assert row["result"] == _direct(spec)


def test_infra_failure_fails_on_first_attempt(tmp_path):
    # Only worker death is retried; an exception raised inside the
    # worker is deterministic and fails the job at once.  The spec is
    # valid (the daemon refuses one that is not at intake); the worker's
    # environment asks for the invariant monitor at a malformed interval.
    daemon = Daemon(str(tmp_path / "repro.sock"), workers=1,
                    env=dict(os.environ, REPRO_CHECK="1",
                             REPRO_CHECK_INTERVAL="banana"))
    daemon.start()
    try:
        client = ServiceClient(daemon.address)
        spec = RunSpec(16, Variant.BASELINE, "canneal", 1, **SMALL)
        [status] = client.submit([spec])
        [row] = client.results([status["job_id"]], timeout=300.0)
        assert row["state"] == FAILED
        assert row["attempts"] == 1
        assert row["error_kind"] == "ConfigError"
        assert "REPRO_CHECK_INTERVAL" in row["error"] \
            and "banana" in row["error"]
        # FAILED jobs do not absorb resubmissions: the next submit retries.
        [again] = client.submit([spec])
        assert again["job_id"] != status["job_id"]
    finally:
        daemon.shutdown()


def test_run_timeout_is_not_retried(tmp_path):
    import gc

    spec = RunSpec(16, Variant.REUSE_NOACK, "canneal", 5,
                   measure_instructions=2500, warmup_instructions=300)
    # Workers fork from this process and inherit its gc callbacks
    # (hypothesis, imported by the property suite, registers one).  An
    # exception raised by a signal handler that happens to run inside a
    # gc callback is swallowed as unraisable, and with a suite-sized
    # heap the alarm mostly lands in a collection - so fork without them.
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    daemon = Daemon(str(tmp_path / "t.sock"), workers=1,
                    env=dict(os.environ), run_timeout=0.3)
    daemon.start()
    gc.callbacks.extend(callbacks)
    try:
        client = ServiceClient(daemon.address)
        [status] = client.submit([spec])
        [row] = client.results([status["job_id"]], timeout=300.0)
        respawns = client.info()["respawns"]
    finally:
        daemon.shutdown()
    assert row["state"] == FAILED, row
    assert row["error_kind"] == "RunTimeoutError"
    assert row["attempts"] == 1
    assert respawns == 0  # the worker survived its timed-out run


def test_stream_delivers_live_metrics_then_end(client, tmp_path):
    telemetry = TelemetryConfig(
        metrics=True, spans=False, profile=False, interval=50,
        out_dir=str(tmp_path / "telemetry"),
        trace_dir=str(tmp_path / "trace"),
    )
    spec = RunSpec(16, Variant.BASELINE, "canneal", 1,
                   telemetry=telemetry, **SMALL)
    [status] = client.submit([spec])
    events = list(client.stream(status["job_id"]))
    assert events[-1] == {"event": "end", "state": DONE}
    metrics = [e for e in events if e["event"] == "metric"]
    assert metrics, "no metric samples streamed"
    cycles = [e["cycle"] for e in metrics]
    assert cycles == sorted(cycles)
    assert all(isinstance(e["values"], dict) and e["values"]
               for e in metrics)


def test_repeated_observed_job_streams_every_time(tmp_path):
    # Regression: the one worker's memo answered the second identical
    # observed job, so it streamed nothing although observed jobs are
    # never deduplicated.
    telemetry = TelemetryConfig(
        metrics=True, spans=False, profile=False, interval=50,
        out_dir=str(tmp_path / "telemetry"),
        trace_dir=str(tmp_path / "trace"),
    )
    spec = RunSpec(16, Variant.BASELINE, "canneal", 1,
                   telemetry=telemetry, **SMALL)
    daemon = Daemon(str(tmp_path / "one.sock"), workers=1,
                    env=dict(os.environ))
    daemon.start()
    try:
        client = ServiceClient(daemon.address)
        counts = []
        for _ in range(2):
            [status] = client.submit([spec])
            events = list(client.stream(status["job_id"]))
            assert events[-1] == {"event": "end", "state": DONE}
            counts.append(sum(e["event"] == "metric" for e in events))
    finally:
        daemon.shutdown()
    assert counts[0] > 0 and counts[1] == counts[0]


def test_status_of_unknown_job(client):
    [row] = client.status(["job-does-not-exist"])
    assert row["state"] == "unknown"


def test_shutdown_op_stops_the_daemon(daemon):
    client = ServiceClient(daemon.address)
    assert client.ping()
    client.shutdown()
    deadline = time.time() + 30
    while time.time() < deadline and client.ping():
        time.sleep(0.05)
    assert not client.ping()


# -- the daemon's edge: socket paths and hostile frames -----------------

def test_socket_path_holding_a_regular_file_is_refused(tmp_path):
    """``serve --socket out/report.txt`` must not delete the report."""
    report = tmp_path / "report.txt"
    report.write_text("table 1")
    with pytest.raises(ConfigError, match="report.txt.*not a socket"):
        Daemon(str(report), workers=1).start()
    assert report.read_text() == "table 1"


def test_second_daemon_cannot_steal_a_live_socket(daemon, client):
    thief = Daemon(daemon.address, workers=1)
    with pytest.raises(ConfigError, match="already serving"):
        thief.start()
    thief.shutdown()  # must not unlink the first daemon's socket either
    assert client.ping()
    # ... while a dead daemon's leftover socket file is reclaimed
    stale = os.path.join(os.path.dirname(daemon.address), "stale.sock")
    leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    leftover.bind(stale)
    leftover.close()
    successor = Daemon(stale, workers=1).start()
    try:
        assert ServiceClient(stale).ping()
    finally:
        successor.shutdown()


def test_the_daemon_refuses_a_spec_it_cannot_run_at_intake(tmp_path):
    """A raw wire spec (one ``ServiceClient.submit`` did not make explicit)
    with an unknown topology, a core count that does not tile it or an
    unknown program is refused with a ``ServiceError`` naming the field,
    and the daemon holds no job for it."""
    d = Daemon(str(tmp_path / "repro.sock"), workers=1,
               env=dict(os.environ, REPRO_CACHE=str(tmp_path / "store")))
    d.start()
    try:
        client = ServiceClient(d.address)
        good = protocol.spec_to_json(
            RunSpec(16, Variant.BASELINE, "fft", 1, **SMALL))
        for field, value in [("topology", "ring"), ("n_cores", 15),
                             ("workload", "cannneal")]:
            with pytest.raises(ServiceError, match=f"spec field '{field}'"):
                client._request({"op": "submit",
                                 "specs": [dict(good, **{field: value})]})
        assert d.jobs.snapshot() == [] and client.info()["jobs"] == {}
    finally:
        d.shutdown()


@pytest.mark.parametrize("frame,complaint", [
    (b"x" * 70_000 + b"\n", "exceeds"),
    (b"\xff\xfe{not json\n", "undecodable"),
    (b"[1, 2, 3]\n", "not an object"),
], ids=["oversized", "undecodable", "non-object"])
def test_malformed_frame_is_a_service_error(frame, complaint, daemon,
                                            monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 65_536)
    with pytest.raises(ServiceError, match=complaint):  # receiving side
        protocol.recv_json(io.BytesIO(frame))
    sock = protocol.connect_address(daemon.address, timeout=10.0)
    try:  # the daemon answers a hostile client with a typed error, too
        handle = sock.makefile("rwb")
        handle.write(frame)
        handle.flush()
        reply = protocol.recv_json(handle)
    finally:
        sock.close()
    assert reply["ok"] is False and complaint in reply["error"]
    assert ServiceClient(daemon.address).ping()


def test_result_of_another_build_is_a_service_error(daemon, monkeypatch):
    spec = RunSpec(16, Variant.BASELINE, "canneal", 1, **SMALL)
    handle = api.submit([spec], address=daemon.address)
    real = ServiceClient.results

    def results(self, job_ids, **kwargs):
        rows = real(self, job_ids, **kwargs)
        rows[0]["result"]["field_of_a_newer_build"] = 1
        return rows

    monkeypatch.setattr(ServiceClient, "results", results)
    with pytest.raises(ServiceError, match="not a RunResult of this build"):
        api.results(handle, timeout=300.0)
