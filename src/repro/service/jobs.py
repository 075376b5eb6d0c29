"""Job table of the daemon: states, dedup bookkeeping, handles.

A *job* is one submitted :class:`~repro.harness.experiment.RunSpec`.
Lifecycle::

    QUEUED --("started")--> RUNNING --("done")--> DONE
                               |  ^
                               |  +--(worker death, retries left)
                               |
                               +--("failed" / "gave_up")--> FAILED

The arrows are :class:`repro.proc.Fleet` events; the requeue-on-death
rule is the fleet's.

Dedup rules (also documented in ``docs/architecture.md`` §15):

* a submitted spec whose key matches a QUEUED/RUNNING/DONE job joins
  that job instead of spawning a new one (``source="dedup"``);
* a spec whose key is already in the result store completes immediately
  with the stored result (``source="cache"``);
* telemetry-observed (streamed) specs are **never** deduplicated -- their
  point is regenerating live metric series, mirroring how observed runs
  bypass the cache *read* in :func:`repro.harness.experiment.run_experiment`;
* FAILED jobs do not absorb resubmissions: submitting the same spec
  again retries it.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.harness.experiment import RunSpec

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: States a new submission of the same key may join.
JOINABLE = (QUEUED, RUNNING, DONE)
#: States that terminate streaming.
TERMINAL = (DONE, FAILED)


@dataclass
class Job:
    """One unit of work owned by the daemon."""

    job_id: str
    spec: RunSpec
    key: str
    state: str = QUEUED
    #: How the job got its result: "run", "cache" (store hit at submit)
    #: or "requeue" markers never appear here -- attempts counts those.
    source: str = "run"
    attempts: int = 0
    result: Optional[dict] = None  # RunResult.to_json()
    error: Optional[str] = None
    error_kind: Optional[str] = None
    #: pid of the worker currently executing the job (forensics/tests).
    worker_pid: Optional[int] = None

    def to_status(self) -> dict:
        status = {
            "job_id": self.job_id,
            "key": self.key,
            "state": self.state,
            "source": self.source,
            "attempts": self.attempts,
        }
        if self.error is not None:
            status["error"] = self.error
            status["error_kind"] = self.error_kind
        if self.worker_pid is not None:
            status["worker_pid"] = self.worker_pid
        return status


class JobTable:
    """Thread-safe job registry with key-based dedup.

    All daemon threads (server connections, the event pump) funnel
    through one lock; operations are dictionary updates, so contention
    is negligible next to simulation time.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}
        self._ids = itertools.count(1)
        #: Condition signalled whenever any job reaches a terminal state.
        self.changed = threading.Condition(self._lock)

    def new_job(self, spec: RunSpec, key: str, **kwargs) -> Job:
        with self._lock:
            job = Job(f"job-{next(self._ids)}", spec, key, **kwargs)
            self._jobs[job.job_id] = job
            if not spec.observed:
                # Streamed jobs are invisible to dedup (see module doc).
                self._by_key[key] = job.job_id
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def joinable_by_key(self, key: str) -> Optional[Job]:
        with self._lock:
            job_id = self._by_key.get(key)
            if job_id is None:
                return None
            job = self._jobs[job_id]
            if job.state in JOINABLE:
                return job
            del self._by_key[key]  # FAILED: next submission retries
            return None

    def finish(self, job: Job, *, state: str, result: Optional[dict] = None,
               error: Optional[str] = None,
               error_kind: Optional[str] = None) -> None:
        with self.changed:
            job.state = state
            job.result = result
            job.error = error
            job.error_kind = error_kind
            job.worker_pid = None
            self.changed.notify_all()

    def snapshot(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())
