"""Shard supervision: rerun, escalation, typed failure.

The sharded engine must survive the death of any worker process without
changing a single bit of the result: the supervisor reaps every worker
and reruns the whole sharded run from scratch.  When recovery is
impossible (budget exhausted, deterministic worker error) the run must
fail with a typed error naming the shard - and no process, healthy or
wedged, may ever outlive the coordinator.
"""

import os
import signal
import time

import pytest
from tests.conftest import surviving_pids

from repro.proc import reap, spawn
from repro.sim.config import Variant, small_test_config
from repro.sim.shard import (
    ShardRecoveryError,
    ShardWorkerDied,
    resolve_shard_timeout,
    run_sharded,
)
from repro.validate import conformance
from repro.validate.conformance import Cell

WARMUP = 80
MEASURE = 250


#: The conformance cell of ``run_sharded(config, "canneal", WARMUP,
#: MEASURE)`` below; its golden witness is what recovery must reproduce.
CELL = Cell(Variant.REUSE_NOACK, "canneal", MEASURE, warmup=WARMUP, seed=3)


@pytest.fixture(autouse=True)
def _no_engine_env(monkeypatch):
    for var in ("REPRO_SHARDS", "REPRO_SCALE", "REPRO_CACHE",
                "REPRO_SHARD_TIMEOUT", "REPRO_SHARD_RESPAWNS"):
        monkeypatch.delenv(var, raising=False)


# -- recovery keeps bit-identity ----------------------------------------

def _witness(result) -> dict:
    return conformance.witness(result.stats, start=result.start_cycle,
                               finish=result.finish_cycle,
                               end=result.end_cycle)


@pytest.mark.parametrize("barrier_seq", [3])
def test_worker_sigkill_recovers_bit_identically(barrier_seq, pinned,
                                                 monkeypatch, tmp_path):
    """SIGKILL a worker mid-run; the rerun fleet finishes identically,
    and every worker of both attempts is gone - the killed attempt's
    healthy shard is reaped, not left at its barrier."""
    pidfile = tmp_path / "pids"
    monkeypatch.setenv("REPRO_SHARD_PIDFILE", str(pidfile))
    result = run_sharded(
        CELL.config(), "canneal", WARMUP, MEASURE, n_shards=2, check=False,
        _chaos={"shard": 0, "barrier_seq": barrier_seq, "action": "sigkill"},
    )
    assert result.respawns == 1
    assert not conformance.diff(_witness(result), pinned(CELL, "fast"))
    pids = [int(pid) for pid in pidfile.read_text().split()]
    assert len(pids) == 4  # two shards, two attempts
    assert not surviving_pids(pids, timeout=5)


def test_a_budget_of_one_rerun_recovers(pinned):
    """``respawn_limit=1`` is enough for one death: the run is rerun
    once and matches the uninterrupted one."""
    result = run_sharded(
        CELL.config(), "canneal", WARMUP, MEASURE, n_shards=2, check=False,
        respawn_limit=1,
        _chaos={"shard": 1, "barrier_seq": 20, "action": "sigkill"},
    )
    assert result.respawns == 1
    assert not conformance.diff(_witness(result), pinned(CELL, "fast"))


def test_respawn_budget_exhaustion_is_typed():
    """With a zero budget the first death surfaces as ShardRecoveryError."""
    config = small_test_config(16, Variant.REUSE_NOACK, seed=3)
    with pytest.raises(ShardRecoveryError, match="respawn budget") as err:
        run_sharded(
            config, "canneal", WARMUP, MEASURE, n_shards=2, check=False,
            respawn_limit=0,
            _chaos={"shard": 1, "barrier_seq": 3, "action": "sigkill"},
        )
    assert err.value.shard == 1


# -- shutdown backstop: terminate -> kill escalation --------------------

def _ignore_sigterm_forever(conn, parent_pid):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(0.05)


def test_shutdown_escalates_to_sigkill_for_stubborn_workers():
    """A worker deaf to the ask and to SIGTERM must still be reaped (the
    one ladder in ``repro.proc``: ask -> join -> terminate -> kill)."""
    proc, conn = spawn(_ignore_sigterm_forever, (), "repro-test-stubborn")
    time.sleep(0.3)  # let the child install its SIG_IGN handler
    started = time.monotonic()
    reap([(proc, conn)], "please stop", grace=0.3)
    elapsed = time.monotonic() - started
    assert not proc.is_alive()
    assert elapsed < 5, f"escalation took {elapsed:.1f}s"


def test_orphaned_workers_exit_when_coordinator_dies():
    """SIGKILLing the coordinator must not leak blocked workers.

    Workers are forked, so every sibling holds duplicate pipe fds and a
    dead coordinator never produces EOF; the workers' re-parenting check
    is the only exit path.  Kill a live coordinator and require every
    registered worker pid to vanish on its own.
    """
    import subprocess
    import sys
    import tempfile

    pidfile = tempfile.mktemp(prefix="repro-shard-pids-")
    env = dict(os.environ, REPRO_SHARD_PIDFILE=pidfile,
               PYTHONPATH=os.pathsep.join(sys.path))
    program = (
        "from repro.sim.config import small_test_config, Variant\n"
        "from repro.sim.shard import run_sharded\n"
        "run_sharded(small_test_config(16, Variant.REUSE_NOACK, seed=3),\n"
        "            'canneal', 5000, 100000, n_shards=2, check=False)\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", program], env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        pids = []
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and len(pids) < 2:
            time.sleep(0.2)
            if os.path.exists(pidfile):
                pids = [int(line) for line in open(pidfile)
                        if line.strip()]
        assert len(pids) >= 2, "workers never registered their pids"
        time.sleep(1.0)  # let them get past startup and into the run
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        # orphan poll is 1s; allow slack
        alive = surviving_pids(pids, timeout=30)
        assert not alive, f"leaked orphan workers: {sorted(alive)}"
    finally:
        if proc.poll() is None:
            proc.kill()
        for pid in pids if "pids" in dir() else []:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        try:
            os.unlink(pidfile)
        except OSError:
            pass


# -- receive-timeout resolution -----------------------------------------

def test_timeout_explicit_override_wins(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "7")
    assert resolve_shard_timeout(override=3.5) == 3.5


def test_timeout_environment_beats_default(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "7")
    assert resolve_shard_timeout() == 7.0


def test_timeout_default_without_overrides():
    assert resolve_shard_timeout() == 1200.0


def test_timeout_rejects_nonsense(monkeypatch):
    with pytest.raises(ValueError):
        resolve_shard_timeout(override=0)
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "soon")
    with pytest.raises(ValueError, match="REPRO_SHARD_TIMEOUT"):
        resolve_shard_timeout()


def test_worker_died_error_carries_the_shard():
    error = ShardWorkerDied("shard worker 1 died (exit code -9)", shard=1)
    assert error.shard == 1
    assert "exit code -9" in str(error)
