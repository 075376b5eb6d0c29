"""The job daemon: a worker fleet behind an async job API.

One :class:`Daemon` owns

* a :class:`repro.proc.Fleet` -- long-lived worker processes running
  the harness's one compute step (:func:`repro.harness.experiment._compute`,
  degrading, so a sick configuration becomes a failure result instead of
  killing the worker) on each spec as its client made it explicit (no
  ``REPRO_SCALE`` / ``REPRO_TOPOLOGY`` read here), keyed once at submit;
  timeout, worker-death requeue, respawn and shutdown are the
  fleet's (see :mod:`repro.proc`, the one supervision policy);
* a **pump thread** -- turns :meth:`~repro.proc.Fleet.events` into job
  state transitions and metric fan-out;
* a **socket server** -- one thread per client connection speaking the
  newline-JSON protocol of :mod:`repro.service.protocol`;
* a :class:`~repro.service.jobs.JobTable` with the dedup rules
  documented there, backed by the shared result store
  (:func:`repro.harness.cache.open_cache`) for submit-time cache hits.

Telemetry-observed jobs stream: the worker attaches a forwarding
``on_sample`` callback (:attr:`repro.telemetry.TelemetryConfig.on_sample`)
so every metric sample travels daemon-ward while the run is in flight;
the daemon fans samples out to any number of ``stream`` subscribers,
keeping a bounded replay buffer for late joiners.

Determinism: workers compute results with the same compute step as an
in-process :func:`repro.harness.experiment.run_specs` batch -- the daemon
only looks up and schedules, so results are bit-identical to serial
execution (enforced by tests and the chaos campaign).
"""

from __future__ import annotations

import logging
import os
import queue
import socket
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional

from repro import config as repro_config
from repro.harness.cache import open_cache
from repro.proc import DEFAULT_RETRIES, Fleet
from repro.service import jobs as jobstates
from repro.service.jobs import Job, JobTable
from repro.service.protocol import (
    PROTOCOL_VERSION,
    bind_address,
    recv_json,
    send_json,
    spec_from_json,
    spec_to_json,
)

logger = logging.getLogger("repro.service.daemon")

#: Metric samples replayed to subscribers that join mid-run.
METRIC_BUFFER = 1024

#: Environment variables propagated into worker processes: everything
#: the experiment layer resolves through :mod:`repro.config`.
_PROPAGATED = tuple(entry.env for entry in repro_config.SETTINGS.values())


def worker_env(base: Optional[dict] = None) -> Dict[str, str]:
    """The ``REPRO_*`` subset of the environment workers inherit."""
    source = os.environ if base is None else base
    return {
        name: source[name] for name in _PROPAGATED if name in source
    }


def _run_job(task: tuple, emit) -> dict:
    """Fleet task: compute one ``(explicit spec JSON, key)`` job as
    written, under the key the daemon acknowledged at submit, streaming
    its samples if observed."""
    from repro.harness.experiment import _compute

    spec_json, key = task
    spec = spec_from_json(spec_json)
    if spec.observed:
        def _forward(cycle, values):
            emit((cycle, dict(values)))
        spec = replace(
            spec, telemetry=replace(spec.telemetry, on_sample=_forward)
        )
    return _compute(spec, key, safe=True).to_json()


class Daemon:
    """See module docstring.  ``serve_forever`` = ``start`` + block."""

    def __init__(self, address: str, workers: Optional[int] = None,
                 env: Optional[Dict[str, str]] = None,
                 retries: int = DEFAULT_RETRIES,
                 run_timeout: Optional[float] = None) -> None:
        self.address = address
        self.retries = retries
        self.run_timeout = run_timeout
        self.env = worker_env(env)
        configured = repro_config.resolve("service_workers", override=workers)
        self.n_workers = configured if configured else (os.cpu_count() or 1)
        self.jobs = JobTable()
        self.started_at: Optional[float] = None
        self._lock = threading.RLock()
        self._fleet: Optional[Fleet] = None
        self._subscribers: Dict[str, List[queue.Queue]] = {}
        self._metric_buffers: Dict[str, List[list]] = {}
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._server: Optional[socket.socket] = None
        cache_path = self.env.get("REPRO_CACHE", "")
        self._store = open_cache(cache_path) if cache_path else None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "Daemon":
        self._server = bind_address(self.address)
        self._server.settimeout(0.2)
        self.started_at = time.time()
        self._fleet = Fleet(_run_job, self.n_workers, self.retries,
                            self.run_timeout, env=self.env)
        for target, name in ((self._pump, "pump"),
                             (self._accept, "acceptor")):
            thread = threading.Thread(
                target=target, name=f"repro-service-{name}", daemon=True)
            thread.start()
            self._threads.append(thread)
        logger.info("daemon listening on %s with %d workers (pid %d)",
                    self.address, self.n_workers, os.getpid())
        return self

    def serve_forever(self) -> None:
        self.start()
        try:
            while not self._stop.wait(0.5):
                pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        if self._stop.is_set():
            return
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        if self._fleet is not None:
            self._fleet.close()
        if self._server is not None:
            self._server.close()
            from repro.service.protocol import parse_address

            parsed = parse_address(self.address)
            if not isinstance(parsed, tuple):
                try:
                    os.unlink(parsed)
                except OSError:
                    pass
        logger.info("daemon on %s shut down", self.address)

    # -- job intake ------------------------------------------------------

    def submit_specs(self, spec_dicts: List[dict]) -> List[dict]:
        specs = [spec_from_json(d) for d in spec_dicts]
        keys = [spec.key() for spec in specs]
        # One store read for the batch, outside the lock: each shard the
        # keys no job can serve route to is parsed once.
        stored = self._store.load_many(
            key for spec, key in zip(specs, keys) if not spec.observed
            and self.jobs.joinable_by_key(key) is None
        ) if self._store else {}
        out = []
        for spec, key in zip(specs, keys):
            with self._lock:
                job = None
                if not spec.observed:
                    existing = self.jobs.joinable_by_key(key)
                    if existing is not None:
                        out.append(existing.to_status())
                        continue
                    entry = stored.get(key)
                    if entry is not None:
                        job = self.jobs.new_job(
                            spec, key, state=jobstates.DONE, source="cache",
                            result=entry)
                if job is None:
                    job = self.jobs.new_job(spec, key)
                    self._fleet.submit(job.job_id, (spec_to_json(spec), key))
                out.append(job.to_status())
        return out

    # -- fleet events -> job states ---------------------------------------

    def _pump(self) -> None:
        while not self._stop.is_set():
            for kind, job_id, *data in self._fleet.events(timeout=0.2):
                job = self.jobs.get(job_id)
                if kind == "event":
                    self._publish(job_id, ["metric", *data[0]])
                elif kind == "started":
                    job.state = jobstates.RUNNING
                    job.worker_pid, job.attempts = data
                elif kind == "done":
                    self._finish(job, jobstates.DONE, result=data[0])
                elif kind == "failed":  # raised inside the worker
                    job.attempts += 1
                    self._finish(job, jobstates.FAILED, error=str(data[0]),
                                 error_kind=type(data[0]).__name__)
                else:  # "gave_up": its workers kept dying
                    job.attempts = data[0]
                    self._finish(job, jobstates.FAILED, error=data[1],
                                 error_kind="WorkerDied")

    def _finish(self, job: Job, state: str, **outcome) -> None:
        if state == jobstates.FAILED:
            logger.error("job %s (%s) failed after %d attempt(s): %s",
                         job.job_id, job.key, job.attempts, outcome["error"])
        self.jobs.finish(job, state=state, **outcome)
        self._publish(job.job_id, ["end", state], close=True)

    # -- metric fan-out --------------------------------------------------

    def _publish(self, job_id: str, event: list, close: bool = False) -> None:
        with self._lock:
            if event[0] == "metric":
                buffer = self._metric_buffers.setdefault(job_id, [])
                if len(buffer) < METRIC_BUFFER:
                    buffer.append(event)
            subscribers = list(self._subscribers.get(job_id, ()))
            if close:
                self._subscribers.pop(job_id, None)
        for q in subscribers:
            q.put(event)

    def _subscribe(self, job_id: str) -> "queue.Queue":
        q: "queue.Queue" = queue.Queue()
        with self._lock:
            for event in self._metric_buffers.get(job_id, ()):
                q.put(event)
            job = self.jobs.get(job_id)
            if job is not None and job.state in jobstates.TERMINAL:
                q.put(["end", job.state])
            else:
                self._subscribers.setdefault(job_id, []).append(q)
        return q

    def _unsubscribe(self, job_id: str, q: "queue.Queue") -> None:
        with self._lock:
            subscribers = self._subscribers.get(job_id)
            if subscribers and q in subscribers:
                subscribers.remove(q)

    # -- socket server ---------------------------------------------------

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                client, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_client, args=(client,),
                name="repro-service-client", daemon=True)
            thread.start()

    def _serve_client(self, client: socket.socket) -> None:
        client.settimeout(None)
        handle = client.makefile("rwb")
        try:
            request = recv_json(handle)
            if request is None:
                return
            op = request.get("op")
            if op == "submit":
                send_json(handle, {
                    "ok": True,
                    "jobs": self.submit_specs(request.get("specs", [])),
                })
            elif op == "status":
                send_json(handle, {"ok": True,
                                   "jobs": self._statuses(request)})
            elif op == "results":
                send_json(handle, self._results(request))
            elif op == "stream":
                self._stream(handle, request.get("job"))
            elif op == "info":
                send_json(handle, self._info())
            elif op == "shutdown":
                send_json(handle, {"ok": True})
                threading.Thread(target=self.shutdown, daemon=True).start()
            else:
                send_json(handle, {"ok": False,
                                   "error": f"unknown op {op!r}"})
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        except Exception as exc:  # noqa: BLE001 - report instead of dying
            logger.exception("error serving client request")
            try:
                send_json(handle, {"ok": False, "error": str(exc)})
            except OSError:
                pass
        finally:
            try:
                handle.close()
            except OSError:
                pass
            client.close()

    def _statuses(self, request: dict) -> List[dict]:
        out = []
        for job_id in request.get("jobs", []):
            job = self.jobs.get(job_id)
            out.append(job.to_status() if job is not None
                       else {"job_id": job_id, "state": "unknown"})
        return out

    def _results(self, request: dict) -> dict:
        job_ids = request.get("jobs", [])
        deadline = None
        if request.get("timeout") is not None:
            deadline = time.monotonic() + float(request["timeout"])
        if request.get("wait", True):
            with self.jobs.changed:
                while True:
                    jobs = [self.jobs.get(j) for j in job_ids]
                    pending = [j for j in jobs if j is not None
                               and j.state not in jobstates.TERMINAL]
                    if not pending:
                        break
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return {"ok": False,
                                    "error": "timed out waiting for jobs"}
                    self.jobs.changed.wait(
                        min(remaining, 1.0) if remaining else 1.0)
                    if self._stop.is_set():
                        return {"ok": False, "error": "daemon shutting down"}
        out = []
        for job_id in job_ids:
            job = self.jobs.get(job_id)
            if job is None:
                out.append({"job_id": job_id, "state": "unknown"})
                continue
            status = job.to_status()
            status["result"] = job.result
            out.append(status)
        return {"ok": True, "jobs": out}

    def _stream(self, handle, job_id: Optional[str]) -> None:
        job = self.jobs.get(job_id) if job_id else None
        if job is None:
            send_json(handle, {"ok": False,
                               "error": f"unknown job {job_id!r}"})
            return
        send_json(handle, {"ok": True, "streaming": job_id})
        q = self._subscribe(job_id)
        try:
            while not self._stop.is_set():
                try:
                    event = q.get(timeout=0.5)
                except queue.Empty:
                    continue
                if event[0] == "end":
                    send_json(handle, {"event": "end", "state": event[1]})
                    return
                send_json(handle, {"event": "metric", "cycle": event[1],
                                   "values": event[2]})
        finally:
            self._unsubscribe(job_id, q)

    def _info(self) -> dict:
        states: Dict[str, int] = {}
        for job in self.jobs.snapshot():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "address": self.address,
            "workers": self._fleet.workers(),
            "jobs": states,
            "queued": states.get(jobstates.QUEUED, 0),
            "respawns": self._fleet.respawns,
            "store": self.env.get("REPRO_CACHE", ""),
        }
