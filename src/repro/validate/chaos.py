"""Process-level chaos campaign: prove recovery is deterministic.

Each scenario injects a real process-level fault into a real run -
SIGKILL a shard worker mid-window, SIGSTOP-wedge one past the receive
timeout, SIGKILL the shard *coordinator* or a sweep-pool worker,
corrupt or truncate a shard snapshot on disk - and then demands one of
two outcomes, with nothing in between:

* the run **recovers** (self-healing respawn, snapshot resume, or a
  fleet rerunning a dead worker's task) and its stats, histograms and
  finish cycle are *bit-identical* to an uninterrupted reference run; or
* the failure is **impossible to recover** (respawn budget exhausted,
  damaged snapshot) and surfaces as its precise typed error
  (:class:`~repro.sim.shard.ShardRecoveryError`,
  :class:`~repro.sim.checkpoint.CorruptCheckpointError`, ...).

A clean control run must report **zero** respawns (no false positives),
and no worker process - shard or daemon - may outlive its campaign
scenario (checked through ``REPRO_SHARD_PIDFILE``, which
:func:`repro.proc.spawn` appends every pid to).

Run it via ``python -m repro.harness chaos`` or
:func:`run_chaos_campaign`; the CI ``chaos`` job gates on it.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional

import repro
from repro._record import record
from repro.cpu.workloads import ALL_WORKLOADS
from repro.sim.checkpoint import (
    MAGIC,
    CorruptCheckpointError,
    IncompatibleCheckpointError,
    capture_system,
    fingerprint,
    read_checkpoint,
    write_checkpoint,
)
from repro.sim.config import Variant
from repro.sim.shard import _SNAPSHOT_RE, ShardRecoveryError, run_sharded
from repro.system import build_system, new_run_state
from repro.validate import conformance

#: Small-but-real quanta: enough cycles for several barrier windows,
#: snapshots and phase transitions on a 4x4 mesh.
_WARMUP = 200
_MEASURE = 400
_WORKLOAD = ALL_WORKLOADS[0].name
_SEED = 3
#: Snapshot cadence tight enough that every scenario crosses several
#: snapshot points inside its ~15k-cycle run.
_INTERVAL = 2000

#: The conformance cell every recovery scenario runs.
CELL = conformance.Cell(Variant.REUSE_NOACK, _WORKLOAD, _MEASURE,
                        warmup=_WARMUP, seed=_SEED)


@record
class ChaosOutcome:
    """Verdict of one chaos scenario."""

    scenario: str
    ok: bool
    detail: str = ""
    error: str = ""


def _identical(result, reference: dict) -> Optional[str]:
    """None when the ``ShardResult`` is bit-identical to the reference
    witness, else :func:`conformance.diff`'s description."""
    return conformance.diff(conformance.witness(
        result.stats, start=result.start_cycle, finish=result.finish_cycle,
        end=result.end_cycle), reference)


class _PidWatch:
    """Record every worker pid spawned inside the block; assert all dead."""

    def __enter__(self) -> "_PidWatch":
        handle = tempfile.NamedTemporaryFile(
            mode="w", suffix=".pids", delete=False)
        handle.close()
        self.path = handle.name
        self._saved = os.environ.pop("REPRO_SHARD_PIDFILE", None)
        os.environ["REPRO_SHARD_PIDFILE"] = self.path
        return self

    def __exit__(self, *exc_info) -> None:
        if self._saved is None:
            os.environ.pop("REPRO_SHARD_PIDFILE", None)
        else:  # pragma: no cover - nested campaigns
            os.environ["REPRO_SHARD_PIDFILE"] = self._saved
        os.unlink(self.path)

    def pids(self) -> List[int]:
        """Every worker pid spawned so far."""
        with open(self.path) as handle:
            return [int(line) for line in handle if line.strip()]

    def leaked(self) -> List[int]:
        alive = []
        pids = self.pids()
        deadline = time.time() + 10  # grace for SIGKILLed procs to reap
        for pid in pids:
            while True:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                except PermissionError:  # pragma: no cover - pid reuse
                    break
                if time.time() > deadline:
                    alive.append(pid)
                    break
                time.sleep(0.1)
        return alive


# ----------------------------------------------------------------------
# Scenarios.  Each returns a ChaosOutcome; the reference is passed in so
# one uninterrupted run serves every recovery scenario.
# ----------------------------------------------------------------------

def _scenario_recovery(name: str, reference: dict, respawns: int,
                       detail: str, **fault) -> ChaosOutcome:
    """One supervised sharded run, unharmed (``respawns=0``: the control,
    which must not trip the supervisor at all) or with a ``_chaos`` fault
    injected into a worker: exactly ``respawns`` respawns, no leaked
    worker, and a result bit-identical to ``reference``."""
    with _PidWatch() as watch:
        result = run_sharded(CELL.config(), _WORKLOAD, _WARMUP,
                             _MEASURE, n_shards=2, check=False,
                             checkpoint_interval=_INTERVAL, **fault)
        leaked = watch.leaked()
    if result.respawns != respawns:
        return ChaosOutcome(name, False,
                            error=f"expected {respawns} respawn(s), got "
                                  f"{result.respawns}")
    if leaked:
        return ChaosOutcome(name, False,
                            error=f"leaked (wedged?) workers: {leaked}")
    divergence = _identical(result, reference)
    if divergence:
        return ChaosOutcome(name, False, error=divergence)
    return ChaosOutcome(name, True, detail=detail)


def _scenario_respawn_exhausted() -> ChaosOutcome:
    """With a zero respawn budget, a killed worker must surface as a
    typed ShardRecoveryError - not a hang, not a bare crash."""
    name = "respawn-exhausted"
    with _PidWatch() as watch:
        try:
            run_sharded(
                CELL.config(), _WORKLOAD, _WARMUP, _MEASURE,
                n_shards=2, check=False, checkpoint_interval=_INTERVAL,
                respawn_limit=0,
                _chaos={"shard": 1, "barrier_seq": 10, "action": "sigkill"},
            )
        except ShardRecoveryError as err:
            leaked = watch.leaked()
            if leaked:
                return ChaosOutcome(name, False,
                                    error=f"leaked workers: {leaked}")
            return ChaosOutcome(name, True, detail=f"typed error: {err}")
        except Exception as err:  # noqa: BLE001 - verdict, not control flow
            return ChaosOutcome(name, False,
                                error=f"wrong error type "
                                      f"{type(err).__name__}: {err}")
    return ChaosOutcome(name, False,
                        error="run succeeded with a dead worker and no "
                              "respawn budget")


def _scenario_coordinator_sigkill(reference: dict) -> ChaosOutcome:
    """SIGKILL the whole coordinator process mid-run, then resume the run
    from the workers' snapshots (newest consistent cut)."""
    name = "coordinator-sigkill"
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    child_src = (
        "import sys\n"
        f"sys.path.insert(0, {src_root!r})\n"
        "from repro.sim.shard import run_sharded\n"
        "from repro.validate.chaos import CELL\n"
        f"run_sharded(CELL.config(), {_WORKLOAD!r}, {_WARMUP}, "
        f"{_MEASURE}, "
        f"n_shards=2, check=False, checkpoint_dir=sys.argv[1], "
        f"checkpoint_interval={_INTERVAL})\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        ckdir = os.path.join(tmp, "ck")
        proc = subprocess.Popen([sys.executable, "-c", child_src, ckdir])

        def common_seqs() -> set:
            per: Dict[int, set] = {0: set(), 1: set()}
            if os.path.isdir(ckdir):
                for entry in os.listdir(ckdir):
                    match = _SNAPSHOT_RE.match(entry)
                    if match:
                        per[int(match.group(1))].add(int(match.group(2)))
            return per[0] & per[1]

        deadline = time.time() + 180
        while time.time() < deadline:
            if common_seqs():
                break
            if proc.poll() is not None:
                return ChaosOutcome(
                    name, False,
                    error="victim finished before any snapshot appeared "
                          "(scenario too short for the cadence)")
            time.sleep(0.05)
        else:
            proc.kill()
            proc.wait()
            return ChaosOutcome(name, False,
                                error="no snapshots appeared in time")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        time.sleep(0.5)  # orphaned daemon workers die with the parent
        with _PidWatch() as watch:
            try:
                result = run_sharded(
                    CELL.config(), _WORKLOAD, _WARMUP, _MEASURE,
                    n_shards=2, check=False, checkpoint_dir=ckdir,
                    checkpoint_interval=_INTERVAL, resume=True,
                )
            except Exception as err:  # noqa: BLE001 - verdict
                return ChaosOutcome(name, False,
                                    error=f"resume failed: "
                                          f"{type(err).__name__}: {err}")
            leaked = watch.leaked()
    if leaked:
        return ChaosOutcome(name, False, error=f"leaked workers: {leaked}")
    divergence = _identical(result, reference)
    if divergence:
        return ChaosOutcome(name, False, error=divergence)
    return ChaosOutcome(name, True,
                        detail="resumed from consistent cut, bit-identical")


class _Requeues(logging.Handler):
    """Counts the tasks a fleet requeues after a worker's death, while
    it is entered (``with _Requeues() as requeues:``)."""

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += "requeueing" in record.getMessage()

    def __enter__(self) -> "_Requeues":
        logging.getLogger("repro.proc").addHandler(self)
        return self

    def __exit__(self, *exc) -> None:
        logging.getLogger("repro.proc").removeHandler(self)


def _kill_first_worker(watch: "_PidWatch", killed: List[int]) -> None:
    """Wait for the first worker ``watch`` sees, give it time to take a
    task, then SIGKILL it and record its pid in ``killed``."""
    deadline = time.time() + 60
    while time.time() < deadline:
        pids = watch.pids()
        if pids:
            time.sleep(0.3)  # the fleet hands out tasks as it starts
            try:
                os.kill(pids[0], signal.SIGKILL)
            except ProcessLookupError:
                return  # already gone: nothing was killed
            killed.append(pids[0])
            return
        time.sleep(0.01)


def _scenario_sweep_worker_sigkill() -> ChaosOutcome:
    """SIGKILL one worker of a ``--jobs 2`` sweep pool mid-batch: its
    fleet reruns the task on a respawned worker, and every result must
    match an uninterrupted serial batch, with no worker left behind."""
    from repro.harness import experiment
    from repro.harness.experiment import RunSpec

    name = "sweep-worker-sigkill"
    # Memory-bound canneal: each run takes about a second, so the kill
    # lands inside the first task.
    specs = [RunSpec(16, variant, "canneal", _SEED,
                     measure_instructions=800, warmup_instructions=200)
             for variant in (Variant.BASELINE, Variant.COMPLETE,
                             Variant.REUSE_NOACK)]
    saved_cache = os.environ.pop("REPRO_CACHE", None)  # compute, not read
    try:
        with experiment.fresh_memo():
            serial = experiment.run_specs(specs, jobs=1)
        killed: List[int] = []
        with experiment.fresh_memo(), _PidWatch() as watch, \
                _Requeues() as requeues:
            killer = threading.Thread(target=_kill_first_worker,
                                      args=(watch, killed))
            killer.start()
            try:
                pooled = experiment.run_specs(specs, jobs=2)
            except Exception as err:  # noqa: BLE001 - verdict
                pooled = err
            finally:
                killer.join()
            spawned = len(watch.pids())
            leaked = watch.leaked()
    finally:
        if saved_cache is not None:
            os.environ["REPRO_CACHE"] = saved_cache
    if isinstance(pooled, Exception):
        return ChaosOutcome(name, False,
                            error=f"batch failed: {type(pooled).__name__}: "
                                  f"{pooled}")
    if not killed or spawned != 3 or requeues.count != 1:
        return ChaosOutcome(name, False,
                            error=f"expected 1 kill, 1 respawn and 1 rerun "
                                  f"task, got {len(killed)}, {spawned - 2} "
                                  f"and {requeues.count}")
    if leaked:
        return ChaosOutcome(name, False, error=f"leaked workers: {leaked}")
    for key, result in serial.items():
        divergence = conformance.diff(
            conformance.result_witness(pooled[key]),
            conformance.result_witness(result))
        if divergence:
            return ChaosOutcome(name, False, error=f"{key}: {divergence}")
    return ChaosOutcome(name, True,
                        detail=f"pool worker killed mid-batch; task rerun, "
                               f"{len(serial)} results bit-identical")


def _snapshot_file_for_damage(directory: str) -> str:
    """Write a real snapshot of a warmed-up system to damage."""
    from repro.cpu.workloads import workload_by_name

    system = build_system(CELL.config(), workload_by_name(_WORKLOAD))
    system.warmup(_WARMUP)
    cycle = system.sim.cycle
    path = os.path.join(directory, "snapshot.ckpt")
    write_checkpoint(
        path, capture_system(system, dict(new_run_state(_WARMUP, _MEASURE),
                                          cycle=cycle)),
        kind="shard", config_hash=fingerprint("chaos-damage"), cycle=cycle)
    return path


def _scenario_corrupt_checkpoint() -> ChaosOutcome:
    """Bit-flips and truncation must raise CorruptCheckpointError."""
    name = "corrupt-checkpoint"
    with tempfile.TemporaryDirectory() as tmp:
        path = _snapshot_file_for_damage(tmp)
        with open(path, "rb") as handle:
            raw = handle.read()
        damages = {
            "bad-magic": b"NOTACKPT" + raw[len(MAGIC):],
            "payload-bitflip": raw[:-10] + bytes([raw[-10] ^ 0xFF])
            + raw[-9:],
            "truncated": raw[:len(raw) // 2],
            "empty": b"",
        }
        for label, blob in damages.items():
            damaged = os.path.join(tmp, f"damaged-{label}.ckpt")
            with open(damaged, "wb") as handle:
                handle.write(blob)
            try:
                read_checkpoint(damaged)
            except CorruptCheckpointError:
                continue  # the required typed outcome
            except Exception as err:  # noqa: BLE001 - verdict
                return ChaosOutcome(name, False,
                                    error=f"{label}: wrong error "
                                          f"{type(err).__name__}: {err}")
            return ChaosOutcome(name, False,
                                error=f"{label}: damage went undetected")
    return ChaosOutcome(name, True,
                        detail="bad magic / bitflip / truncation / empty "
                               "all raise CorruptCheckpointError")


def _scenario_stale_or_foreign_checkpoint() -> ChaosOutcome:
    """Stale schema versions and config mismatches must be rejected with
    IncompatibleCheckpointError before any state is deserialised."""
    import json
    import struct

    name = "stale-or-foreign-checkpoint"
    with tempfile.TemporaryDirectory() as tmp:
        path = _snapshot_file_for_damage(tmp)
        with open(path, "rb") as handle:
            raw = handle.read()
        (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
        header_end = len(MAGIC) + 4 + header_len
        header = json.loads(raw[len(MAGIC) + 4:header_end])
        # Stale schema.
        stale_header = dict(header, schema=999)
        blob = json.dumps(stale_header).encode()
        stale = os.path.join(tmp, "stale.ckpt")
        with open(stale, "wb") as handle:
            handle.write(MAGIC + struct.pack("<I", len(blob)) + blob
                         + raw[header_end:])
        try:
            read_checkpoint(stale)
        except IncompatibleCheckpointError:
            pass
        except Exception as err:  # noqa: BLE001 - verdict
            return ChaosOutcome(name, False,
                                error=f"stale schema: wrong error "
                                      f"{type(err).__name__}: {err}")
        else:
            return ChaosOutcome(name, False,
                                error="stale schema accepted")
        # Config mismatch.
        try:
            read_checkpoint(path, config_hash=fingerprint("other-config"))
        except IncompatibleCheckpointError:
            return ChaosOutcome(
                name, True,
                detail="stale schema and foreign config both rejected")
        except Exception as err:  # noqa: BLE001 - verdict
            return ChaosOutcome(name, False,
                                error=f"config mismatch: wrong error "
                                      f"{type(err).__name__}: {err}")
        return ChaosOutcome(name, False, error="foreign config accepted")


# ----------------------------------------------------------------------
# Service-level scenarios: the job daemon must uphold the same contract
# as the shard supervisor - worker death is invisible in the results.
# ----------------------------------------------------------------------

def _service_reference(spec) -> dict:
    """Compute ``spec`` directly, bypassing every cache layer, so the
    comparison against the daemon's answer is a real recomputation."""
    from repro.harness import experiment

    saved_cache = os.environ.pop("REPRO_CACHE", None)
    try:
        with experiment.fresh_memo():
            return experiment.run_experiment(spec).to_json()
    finally:
        if saved_cache is not None:
            os.environ["REPRO_CACHE"] = saved_cache


def _scenario_service_worker_sigkill() -> ChaosOutcome:
    """SIGKILL a job-daemon worker mid-run: the daemon must requeue the
    job onto a respawned worker and the final result must stay
    bit-identical to a direct :func:`run_experiment` call."""
    from repro.harness import experiment
    from repro.harness.experiment import RunSpec
    from repro.service import jobs as jobstates
    from repro.service.client import ServiceClient
    from repro.service.daemon import Daemon

    name = "service-worker-sigkill"
    spec = RunSpec(16, Variant.REUSE_NOACK, _WORKLOAD, _SEED,
                   measure_instructions=2500, warmup_instructions=300)
    # Workers are forked at start(): empty the memo first so the job is
    # a genuine multi-second simulation the kill can land inside.
    with experiment.fresh_memo(), tempfile.TemporaryDirectory() as tmp, \
            _PidWatch() as watch, _Requeues() as requeues:
        env = dict(os.environ,
                   REPRO_CACHE=os.path.join(tmp, "store") + os.sep)
        daemon = Daemon(os.path.join(tmp, "repro.sock"), workers=1, env=env)
        daemon.start()
        try:
            client = ServiceClient(daemon.address)
            [status] = client.submit([spec])
            job_id = status["job_id"]
            victim = None
            deadline = time.time() + 60
            while time.time() < deadline:
                info = client.info()
                busy = [w for w in info["workers"]
                        if w["current"] == job_id and w["alive"]]
                if busy:
                    victim = busy[0]["pid"]
                    break
                state = client.status([job_id])[0]["state"]
                if state in jobstates.TERMINAL:
                    return ChaosOutcome(
                        name, False,
                        error=f"job reached {state!r} before the kill "
                              f"landed (run too short for the scenario)")
                time.sleep(0.01)
            if victim is None:
                return ChaosOutcome(name, False,
                                    error="job never started running")
            os.kill(victim, signal.SIGKILL)
            [row] = client.results([job_id], timeout=300.0)
            respawns = client.info()["respawns"]
        finally:
            daemon.shutdown()
        leaked = watch.leaked()
    if leaked:
        return ChaosOutcome(name, False, error=f"leaked workers: {leaked}")
    if row["state"] != jobstates.DONE:
        return ChaosOutcome(
            name, False,
            error=f"job ended {row['state']!r} after worker kill: "
                  f"{row.get('error', '')}")
    if respawns != 1 or requeues.count != 1:
        return ChaosOutcome(name, False,
                            error=f"expected 1 respawn and 1 requeue, got "
                                  f"{respawns} and {requeues.count}")
    if row["attempts"] != 1:
        return ChaosOutcome(
            name, False,
            error=f"expected 1 recorded requeue, got {row['attempts']}")
    reference = _service_reference(spec)
    if row["result"] != reference:
        diff = [key for key in sorted(set(row["result"]) | set(reference))
                if row["result"].get(key) != reference.get(key)]
        return ChaosOutcome(
            name, False,
            error=f"result diverges from direct run on {diff[:3]}")
    return ChaosOutcome(name, True,
                        detail="worker killed mid-job; requeued, respawned, "
                               "bit-identical")


def _scenario_service_dedup() -> ChaosOutcome:
    """Identical specs must join one job, and a fresh daemon over the
    same sharded store must answer from cache without re-simulating."""
    from repro.harness import experiment
    from repro.harness.experiment import RunSpec
    from repro.service import jobs as jobstates
    from repro.service.client import ServiceClient
    from repro.service.daemon import Daemon

    name = "service-dedup-and-store"
    spec = RunSpec(16, Variant.REUSE_NOACK, _WORKLOAD, _SEED,
                   measure_instructions=600, warmup_instructions=150)
    with experiment.fresh_memo(), \
            tempfile.TemporaryDirectory() as tmp, _PidWatch() as watch:
        env = dict(os.environ,
                   REPRO_CACHE=os.path.join(tmp, "store") + os.sep)
        daemon = Daemon(os.path.join(tmp, "a.sock"), workers=1, env=env)
        daemon.start()
        try:
            client = ServiceClient(daemon.address)
            [first] = client.submit([spec])
            [second] = client.submit([spec])
            if first["job_id"] != second["job_id"]:
                return ChaosOutcome(
                    name, False,
                    error="resubmitting an identical spec spawned a "
                          "second job instead of joining the first")
            [row] = client.results([first["job_id"]], timeout=300.0)
            first_result = row["result"]
        finally:
            daemon.shutdown()
        if row["state"] != jobstates.DONE:
            return ChaosOutcome(name, False,
                                error=f"job ended {row['state']!r}: "
                                      f"{row.get('error', '')}")
        # A fresh daemon over the same store: submit must be answered
        # from the store, never re-simulated.
        daemon = Daemon(os.path.join(tmp, "b.sock"), workers=1, env=env)
        daemon.start()
        try:
            client = ServiceClient(daemon.address)
            [cached] = client.submit([spec])
            if cached["state"] != jobstates.DONE or \
                    cached["source"] != "cache":
                return ChaosOutcome(
                    name, False,
                    error=f"store hit not honoured: state "
                          f"{cached['state']!r} source {cached['source']!r}")
            [row2] = client.results([cached["job_id"]], wait=False)
            executed = sum(w["executed"]
                           for w in client.info()["workers"])
        finally:
            daemon.shutdown()
        leaked = watch.leaked()
    if leaked:
        return ChaosOutcome(name, False, error=f"leaked workers: {leaked}")
    if executed != 0:
        return ChaosOutcome(name, False,
                            error=f"restarted daemon re-simulated "
                                  f"{executed} job(s) despite a store hit")
    if row2["result"] != first_result:
        return ChaosOutcome(name, False,
                            error="stored result differs from the one the "
                                  "first daemon computed")
    return ChaosOutcome(name, True,
                        detail="dedup joined, store hit served without "
                               "re-simulation")


def run_chaos_campaign(
    echo: Optional[Callable[[str], None]] = None,
) -> List[ChaosOutcome]:
    """Run every chaos scenario; returns one outcome per scenario."""
    def say(message: str) -> None:
        if echo is not None:
            echo(message)

    outcomes: List[ChaosOutcome] = []

    def run(scenario: Callable[[], ChaosOutcome]) -> None:
        outcome = scenario()
        outcomes.append(outcome)
        verdict = "ok" if outcome.ok else "FAIL"
        say(f"  {outcome.scenario:34s} {verdict}  "
            f"{outcome.detail or outcome.error}")

    say("recovery scenarios")
    # The uninterrupted sharded run every recovery scenario must match.
    reference = conformance.run(CELL, "shards2")
    run(lambda: _scenario_recovery(
        "clean-run", reference, 0, "0 respawns, bit-identical"))
    # SIGKILL one worker mid-window, before the first snapshot (fresh
    # respawn + full replay) and after several (snapshot restore +
    # partial replay); then wedge one past the receive timeout.
    for label, seq in (("early", 3), ("late", 200)):
        run(lambda: _scenario_recovery(
            f"worker-sigkill-{label}", reference, 1,
            f"killed at barrier seq {seq}, recovered bit-identical",
            _chaos={"shard": 1, "barrier_seq": seq, "action": "sigkill"}))
    run(lambda: _scenario_recovery(
        "worker-sigstop", reference, 1,
        "wedge detected by timeout, recovered bit-identical",
        timeout=2.0,
        _chaos={"shard": 0, "barrier_seq": 60, "action": "sigstop"}))
    run(lambda: _scenario_coordinator_sigkill(reference))
    run(_scenario_respawn_exhausted)
    run(_scenario_sweep_worker_sigkill)
    say("damaged-file scenarios")
    run(_scenario_corrupt_checkpoint)
    run(_scenario_stale_or_foreign_checkpoint)
    say("service scenarios")
    run(_scenario_service_worker_sigkill)
    run(_scenario_service_dedup)
    return outcomes
