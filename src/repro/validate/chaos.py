"""Process-fault rows of the validation table: recovery is deterministic.

Each row runs a real run and, as its perturbation, injects a real
process-level fault - SIGKILL a shard worker mid-window, SIGSTOP-wedge
one past the receive timeout, SIGKILL a sweep-pool or job-daemon worker
- and then demands one of two outcomes, with nothing in between:

* the run **recovers** (the sharded run is rerun, or a fleet reruns a
  dead worker's task) and its stats, histograms and finish cycle are
  *bit-identical* to an uninterrupted reference run; or
* the failure is **impossible to recover** (respawn budget exhausted)
  and surfaces as its precise typed error (``ShardRecoveryError``).

A clean sharded control run must be identical with **zero** respawns.
:func:`repro.validate.scenarios.run_scenarios` checks that no worker
outlives its row.
"""

from __future__ import annotations

import functools
import logging
import os
import signal
import tempfile
import threading
import time
from typing import List, Optional

from repro.cpu.workloads import ALL_WORKLOADS
from repro.sim.config import Variant
from repro.validate import conformance
from repro.validate.scenarios import (
    IDENTICAL,
    Observed,
    Scenario,
    raises,
    spawned_pids,
)

#: Small-but-real quanta: enough cycles for many barrier windows and
#: every phase transition on a 4x4 mesh.
_WARMUP = 200
_MEASURE = 400
_WORKLOAD = ALL_WORKLOADS[0].name
_SEED = 3

#: The conformance cell every recovery row runs.
CELL = conformance.Cell(Variant.REUSE_NOACK, _WORKLOAD, _MEASURE,
                        warmup=_WARMUP, seed=_SEED)


@functools.lru_cache(maxsize=None)
def _reference() -> dict:
    """The uninterrupted sharded run every recovery row must match."""
    return conformance.run(CELL, "shards2")


def _sharded(respawns: int, respawn_limit: Optional[int],
             fault: Optional[dict]) -> Observed:
    """One supervised sharded run of :data:`CELL` with ``fault`` (the
    ``run_sharded`` keywords of a worker fault) injected: exactly
    ``respawns`` reruns and a result bit-identical to the reference."""
    from repro.sim.shard import run_sharded

    result = run_sharded(CELL.config(), _WORKLOAD, _WARMUP, _MEASURE,
                         n_shards=2, check=False,
                         respawn_limit=respawn_limit, **(fault or {}))
    if result.respawns != respawns:
        return f"{result.respawns} respawns", f"expected {respawns}"
    divergence = conformance.diff(conformance.witness(
        result.stats, start=result.start_cycle, finish=result.finish_cycle,
        end=result.end_cycle), _reference())
    if divergence:
        return "diverges", divergence
    return IDENTICAL, f"{respawns} rerun(s), bit-identical"


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


def _kill_first_worker(killed: List[int]) -> None:
    """Wait for the first spawned worker, give it time to take a task,
    then SIGKILL it and record its pid in ``killed``."""
    deadline = time.time() + 60
    while time.time() < deadline:
        pids = spawned_pids()
        if pids:
            time.sleep(0.3)  # the fleet hands out tasks as it starts
            try:
                os.kill(pids[0], signal.SIGKILL)
            except ProcessLookupError:
                return  # already gone: nothing was killed
            killed.append(pids[0])
            return
        time.sleep(0.01)


class _NoStore:
    """While entered, ``REPRO_CACHE`` is unset: runs compute."""

    def __enter__(self) -> None:
        self._saved = os.environ.pop("REPRO_CACHE", None)

    def __exit__(self, *exc) -> None:
        if self._saved is not None:
            os.environ["REPRO_CACHE"] = self._saved


def _sweep_pool(kill) -> Observed:
    """A ``--jobs 2`` sweep-pool batch, ``kill`` run beside it: the
    fleet reruns a killed worker's task, and every result must match an
    uninterrupted serial batch."""
    from repro.harness import experiment
    from repro.harness.experiment import RunSpec

    # Memory-bound canneal: each run takes about a second, so the kill
    # lands inside the first task.
    specs = [RunSpec(16, variant, "canneal", _SEED,
                     measure_instructions=800, warmup_instructions=200)
             for variant in (Variant.BASELINE, Variant.COMPLETE,
                             Variant.REUSE_NOACK)]
    killed: List[int] = []
    with _NoStore():
        with experiment.fresh_memo():
            serial = experiment.run_specs(specs, jobs=1)
        with experiment.fresh_memo(), _Requeues() as requeues:
            killer = threading.Thread(target=kill or (lambda _: None),
                                      args=(killed,))
            killer.start()
            try:
                pooled = experiment.run_specs(specs, jobs=2)
            finally:
                killer.join()
    counts = (len(killed), len(spawned_pids()) - 2, requeues.count)
    if counts != (1, 1, 1):
        return ("%d kills, %d respawns, %d reruns" % counts,
                "expected 1 of each")
    for key, result in serial.items():
        divergence = conformance.diff(
            conformance.result_witness(pooled[key]),
            conformance.result_witness(result))
        if divergence:
            return "diverges", f"{key}: {divergence}"
    return IDENTICAL, (f"pool worker killed mid-batch; task rerun, "
                       f"{len(serial)} results bit-identical")


def _service_reference(spec) -> dict:
    """Compute ``spec`` directly, bypassing every cache layer, so the
    comparison against the daemon's answer is a real recomputation."""
    from repro.harness import experiment

    with _NoStore(), experiment.fresh_memo():
        return experiment.run_experiment(spec).to_json()


def _daemon_worker(sig: Optional[int]) -> Observed:
    """A job-daemon run whose busy worker is sent ``sig`` mid-job: the
    daemon must requeue the job onto a respawned worker and the result
    must stay bit-identical to a direct ``run_experiment`` call."""
    from repro.harness import experiment
    from repro.harness.experiment import RunSpec
    from repro.service import jobs as jobstates
    from repro.service.client import ServiceClient
    from repro.service.daemon import Daemon

    spec = RunSpec(16, Variant.REUSE_NOACK, _WORKLOAD, _SEED,
                   measure_instructions=2500, warmup_instructions=300)
    # Workers are forked at start(): empty the memo first so the job is
    # a genuine multi-second simulation the kill can land inside.
    with experiment.fresh_memo(), tempfile.TemporaryDirectory() as tmp, \
            _Requeues() as requeues:
        env = dict(os.environ,
                   REPRO_CACHE=os.path.join(tmp, "store") + os.sep)
        daemon = Daemon(os.path.join(tmp, "repro.sock"), workers=1, env=env)
        daemon.start()
        try:
            client = ServiceClient(daemon.address)
            [status] = client.submit([spec])
            job_id = status["job_id"]
            deadline = time.time() + 60
            while time.time() < deadline:
                busy = [w["pid"] for w in client.info()["workers"]
                        if w["current"] == job_id and w["alive"]]
                if busy:
                    break
                state = client.status([job_id])[0]["state"]
                if state in jobstates.TERMINAL:
                    return state, "the job ended before a worker took it"
                time.sleep(0.01)
            else:
                return "never started", "no worker took the job"
            if sig is not None:
                os.kill(busy[0], sig)
            [row] = client.results([job_id], timeout=300.0)
            respawns = client.info()["respawns"]
        finally:
            daemon.shutdown()
    if row["state"] != jobstates.DONE:
        return row["state"], row.get("error", "")
    if (respawns, requeues.count, row["attempts"]) != (1, 1, 1):
        return (f"{respawns} respawns, {requeues.count} requeues",
                f"{row['attempts']} recorded requeues; expected 1 of each")
    reference = _service_reference(spec)
    if row["result"] != reference:
        diff = [key for key in sorted(set(row["result"]) | set(reference))
                if row["result"].get(key) != reference.get(key)]
        return "diverges", f"from a direct run on {diff[:3]}"
    return IDENTICAL, "worker killed mid-job; requeued, respawned, " \
                      "bit-identical"


def _daemon_dedup(_perturbation: None) -> Observed:
    """Identical specs must join one job, and a fresh daemon over the
    same store must answer from it without re-simulating."""
    from repro.harness import experiment
    from repro.harness.experiment import RunSpec
    from repro.service import jobs as jobstates
    from repro.service.client import ServiceClient
    from repro.service.daemon import Daemon

    spec = RunSpec(16, Variant.REUSE_NOACK, _WORKLOAD, _SEED,
                   measure_instructions=600, warmup_instructions=150)
    with experiment.fresh_memo(), tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ,
                   REPRO_CACHE=os.path.join(tmp, "store") + os.sep)
        daemon = Daemon(os.path.join(tmp, "a.sock"), workers=1, env=env)
        daemon.start()
        try:
            client = ServiceClient(daemon.address)
            [first] = client.submit([spec])
            [second] = client.submit([spec])
            if first["job_id"] != second["job_id"]:
                return "two jobs", "an identical spec did not join the first"
            [row] = client.results([first["job_id"]], timeout=300.0)
        finally:
            daemon.shutdown()
        if row["state"] != jobstates.DONE:
            return row["state"], row.get("error", "")
        # A fresh daemon over the same store: submit must be answered
        # from the store, never re-simulated.
        daemon = Daemon(os.path.join(tmp, "b.sock"), workers=1, env=env)
        daemon.start()
        try:
            client = ServiceClient(daemon.address)
            [cached] = client.submit([spec])
            [again] = client.results([cached["job_id"]], wait=False)
            executed = sum(w["executed"] for w in client.info()["workers"])
        finally:
            daemon.shutdown()
    if (cached["state"], cached["source"], executed) != \
            (jobstates.DONE, "cache", 0):
        return "re-simulated", (f"state {cached['state']!r}, source "
                                f"{cached['source']!r}, {executed} executed")
    if again["result"] != row["result"]:
        return "diverges", "the stored result differs from the computed one"
    return IDENTICAL, "dedup joined, store hit served without re-simulation"


#: The process-fault rows.  A shard fault is the ``run_sharded``
#: keywords that plant it in one worker: a SIGKILL mid-window, or a
#: SIGSTOP wedge past a short receive timeout - either way the whole
#: run is rerun, unless the respawn budget is 0.
ROWS = [
    Scenario("clean-run", functools.partial(_sharded, 0, None), None,
             IDENTICAL),
    Scenario("worker-sigkill", functools.partial(_sharded, 1, None),
             {"_chaos": {"shard": 1, "barrier_seq": 40, "action": "sigkill"}},
             IDENTICAL),
    Scenario("worker-sigstop", functools.partial(_sharded, 1, None),
             {"timeout": 2.0,
              "_chaos": {"shard": 0, "barrier_seq": 60, "action": "sigstop"}},
             IDENTICAL),
    Scenario("respawn-exhausted", functools.partial(_sharded, 0, 0),
             {"_chaos": {"shard": 1, "barrier_seq": 10, "action": "sigkill"}},
             raises("ShardRecoveryError")),
    Scenario("sweep-worker-sigkill", _sweep_pool, _kill_first_worker,
             IDENTICAL),
    Scenario("service-worker-sigkill", _daemon_worker, signal.SIGKILL,
             IDENTICAL),
    Scenario("service-dedup-and-store", _daemon_dedup, None, IDENTICAL),
]
