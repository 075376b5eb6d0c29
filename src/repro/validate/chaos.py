"""Process-level chaos campaign: prove recovery is deterministic.

Each scenario injects a real process-level fault into a real run -
SIGKILL a shard worker mid-window, SIGSTOP-wedge one past the receive
timeout, SIGKILL a sweep-pool or job-daemon worker - and then demands
one of two outcomes, with nothing in between:

* the run **recovers** (the sharded run is rerun, or a fleet reruns a
  dead worker's task) and its stats, histograms and finish cycle are
  *bit-identical* to an uninterrupted reference run; or
* the failure is **impossible to recover** (respawn budget exhausted)
  and surfaces as its precise typed error
  (:class:`~repro.sim.shard.ShardRecoveryError`).

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
import tempfile
import threading
import time
from typing import Callable, List, Optional

from repro._record import record
from repro.cpu.workloads import ALL_WORKLOADS
from repro.sim.config import Variant
from repro.sim.shard import ShardRecoveryError, run_sharded
from repro.validate import conformance

#: Small-but-real quanta: enough cycles for many barrier windows and
#: every phase transition on a 4x4 mesh.
_WARMUP = 200
_MEASURE = 400
_WORKLOAD = ALL_WORKLOADS[0].name
_SEED = 3

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
                             _MEASURE, n_shards=2, check=False, **fault)
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
                n_shards=2, check=False, respawn_limit=0,
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
    # SIGKILL one worker mid-window, then wedge one past the receive
    # timeout: either way the whole run is rerun.
    run(lambda: _scenario_recovery(
        "worker-sigkill", reference, 1,
        "killed at barrier seq 40, rerun bit-identical",
        _chaos={"shard": 1, "barrier_seq": 40, "action": "sigkill"}))
    run(lambda: _scenario_recovery(
        "worker-sigstop", reference, 1,
        "wedge detected by timeout, rerun bit-identical",
        timeout=2.0,
        _chaos={"shard": 0, "barrier_seq": 60, "action": "sigstop"}))
    run(_scenario_respawn_exhausted)
    run(_scenario_sweep_worker_sigkill)
    say("service scenarios")
    run(_scenario_service_worker_sigkill)
    run(_scenario_service_dedup)
    return outcomes
