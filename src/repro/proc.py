"""Supervised worker processes: the one place that forks, guards, retries, reaps.

Sweep pool (:mod:`repro.harness.parallel`), job daemon
(:mod:`repro.service.daemon`) and shard coordinator
(:mod:`repro.sim.shard`) all build on four things:

* :func:`spawn` - pipe + daemonic forked process, running
  ``target(conn, parent_pid, *args)``;
* :func:`recv_or_exit` - the worker-side blocking receive that exits
  once the parent is gone.  Forked siblings hold duplicates of every
  pipe fd, so a SIGKILLed parent never produces EOF; the re-parenting
  check is a stranded worker's only exit;
* :func:`reap` - ask, join, SIGTERM, SIGKILL (a SIGSTOPped or wedged
  worker ignores SIGTERM), so no child outlives its parent's shutdown;
* :class:`Fleet` - long-lived workers running ``fn(payload, emit)``
  one task each under the per-run ``SIGALRM`` timeout.

One retry rule: only process *death* is retried.  A death charges one
attempt to the task that worker was running (queued tasks are never
charged); the task is requeued until :data:`DEFAULT_RETRIES` is spent
and the worker is respawned.  Whatever ``fn`` raises - the timeout
included - is deterministic, would only recur, and fails the task at
once.

Workers are forked (where the platform can): they inherit the parent's
warmed memo and may run closures.  Results never depend on scheduling,
so supervision cannot change a single output bit.
"""

from __future__ import annotations

import functools
import logging
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import threading
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import config as repro_config

logger = logging.getLogger("repro.proc")

#: Worker deaths tolerated per task (or shard) before giving up - the
#: one default budget; ``REPRO_SHARD_RESPAWNS`` overrides it for shards.
DEFAULT_RETRIES: int = repro_config.SETTINGS["shard_respawns"].default

#: How often (seconds) a blocked worker checks that its parent is alive.
ORPHAN_POLL_S = 1.0

#: Seconds :func:`reap` waits at each rung of join -> terminate -> kill.
REAP_GRACE_S = 5.0

_EXIT = "exit"  # the message that asks a Fleet worker to return


class ParallelError(RuntimeError):
    """Base class for experiment-engine failures."""


class RunTimeoutError(ParallelError):
    """A run exceeded its per-run timeout."""


def spawn(target: Callable, args: tuple, name: str):
    """Start ``target(conn, parent_pid, *args)`` in a daemonic child.

    Returns ``(process, parent end of the pipe)``.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=target, name=name, daemon=True,
                       args=(child_conn, os.getpid()) + tuple(args))
    proc.start()
    child_conn.close()
    pidfile = repro_config.resolve("shard_pidfile")
    if pidfile:  # leak checks: record every worker ever spawned
        with open(pidfile, "a") as handle:
            handle.write(f"{proc.pid}\n")
    return proc, conn


def recv_or_exit(conn, parent_pid: int):
    """Next message from the parent; exits hard once the parent is gone
    (nobody is left to read an exception)."""
    try:
        while not conn.poll(ORPHAN_POLL_S):
            if os.getppid() != parent_pid:
                os._exit(2)
        return conn.recv()
    except (EOFError, OSError):
        os._exit(2)


def reap(children: Iterable[Tuple[object, object]], ask,
         grace: float = REAP_GRACE_S) -> None:
    """Stop ``(process, conn)`` children: send ``ask`` (the message that
    tells this kind of worker to finish), then join -> terminate -> kill."""
    children = list(children)
    for _proc, conn in children:
        try:
            conn.send(ask)
        except (BrokenPipeError, OSError):
            pass  # already gone
        conn.close()
    for proc, _conn in children:
        proc.join(grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(grace)
        if proc.is_alive():
            proc.kill()
            proc.join(grace)


def _invoke(worker: Callable, payload, timeout: Optional[float]):
    """Run ``worker(payload)`` in the child, enforcing the per-run timeout.

    ``SIGALRM`` interrupts the simulation loop wherever it is; the
    :class:`RunTimeoutError` fails the task and the worker process stays
    alive for the next one.
    """
    if timeout and timeout > 0 and hasattr(signal, "SIGALRM"):
        def _alarm(signum, frame):
            raise RunTimeoutError(f"run exceeded the {timeout:g}s timeout")

        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            return worker(payload)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    return worker(payload)


def _fleet_worker(conn, parent_pid: int, fn: Callable,
                  timeout: Optional[float], env: Optional[dict]) -> None:
    """Worker loop: receive ``(task_id, payload)``, reply done/failed."""
    if env is not None:  # patched here: the parent is never mutated
        for entry in repro_config.SETTINGS.values():
            os.environ.pop(entry.env, None)
        os.environ.update(env)
    while True:
        message = recv_or_exit(conn, parent_pid)
        if message == _EXIT:
            return
        task_id, payload = message

        def emit(data, _task=task_id):
            try:
                conn.send(("event", _task, data))
            except (BrokenPipeError, OSError):
                pass  # parent gone; the orphan guard will fire

        try:
            reply = ("done", task_id,
                     _invoke(functools.partial(fn, emit=emit), payload,
                             timeout))
        except BaseException as exc:  # noqa: BLE001 - forwarded, not hidden
            try:  # ship the exception itself if it survives the pipe
                pickle.loads(pickle.dumps(exc))
            except Exception:  # noqa: BLE001 - any pickling failure
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = ("failed", task_id, exc)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            os._exit(2)


class _Worker:
    """Parent-side handle of one fleet member."""

    __slots__ = ("proc", "conn", "task", "executed")

    def __init__(self, proc, conn) -> None:
        self.proc, self.conn = proc, conn
        self.task: Optional[tuple] = None  # (task_id, payload) in flight
        self.executed = 0


class Fleet:
    """``size`` long-lived workers running ``fn(payload, emit)``.

    :meth:`submit` queues a task (any thread); :meth:`events` - called
    from one thread - waits for activity and returns what happened, in
    order, as tuples:

    * ``("started", task_id, pid, attempts)`` - handed to a worker,
      ``attempts`` deaths already charged to it;
    * ``("event", task_id, data)`` - the task called ``emit(data)``;
    * ``("done", task_id, result)`` / ``("failed", task_id, exception)``
      - ``fn`` returned / raised (never retried);
    * ``("gave_up", task_id, attempts, message)`` - the task's worker
      died more than ``retries`` times.

    ``env``, when given, replaces the workers' ``REPRO_*`` environment.
    """

    def __init__(self, fn: Callable, size: int,
                 retries: int = DEFAULT_RETRIES,
                 timeout: Optional[float] = None,
                 env: Optional[Dict[str, str]] = None) -> None:
        self.retries = retries
        self.respawns = 0
        self._args = (fn, timeout, env)
        self._lock = threading.RLock()
        self._queue: deque = deque()  # (task_id, payload) awaiting a worker
        self._attempts: Dict[object, int] = {}  # task_id -> deaths charged
        self._outbox: List[tuple] = []
        self._workers = [self._spawn() for _ in range(size)]

    def _spawn(self) -> _Worker:
        return _Worker(*spawn(_fleet_worker, self._args, "repro-worker"))

    def submit(self, task_id, payload) -> None:
        with self._lock:
            self._queue.append((task_id, payload))
            self._dispatch()

    def workers(self) -> List[dict]:
        with self._lock:
            return [{"pid": w.proc.pid, "alive": w.proc.is_alive(),
                     "current": w.task[0] if w.task else None,
                     "executed": w.executed} for w in self._workers]

    def _dispatch(self) -> None:
        for worker in self._workers:
            if not self._queue:
                return
            if worker.task is None and worker.proc.is_alive():
                task = self._queue.popleft()
                try:
                    worker.conn.send(task)
                except (BrokenPipeError, OSError):
                    # Died idle; the sentinel buries it.  Never leave a
                    # task in flight on a corpse.
                    self._queue.appendleft(task)
                    continue
                worker.task = task
                self._outbox.append(("started", task[0], worker.proc.pid,
                                     self._attempts.get(task[0], 0)))

    def events(self, timeout: Optional[float] = None) -> List[tuple]:
        with self._lock:
            by_conn = {w.conn: w for w in self._workers}
            by_sentinel = {w.proc.sentinel: w for w in self._workers}
        ready = multiprocessing.connection.wait(
            [*by_conn, *by_sentinel], timeout)
        with self._lock:
            for item in ready:
                if item in by_conn:
                    self._drain(by_conn[item])
            for item in ready:
                worker = by_sentinel.get(item)
                if worker is not None and not worker.proc.is_alive():
                    self._bury(worker)
            self._dispatch()
            out, self._outbox = self._outbox, []
        return out

    def _drain(self, worker: _Worker) -> None:
        try:
            while worker.conn.poll(0):
                message = worker.conn.recv()
                if message[0] != "event":  # done / failed: worker is idle
                    worker.task = None
                    worker.executed += 1
                    self._attempts.pop(message[1], None)
                self._outbox.append(message)
        except (EOFError, OSError):
            pass  # dead: the sentinel pass buries it

    def _bury(self, dead: _Worker) -> None:
        """A worker died (SIGKILL, segfault, OOM): charge, requeue, respawn."""
        if dead not in self._workers:
            return  # closed meanwhile
        self._drain(dead)  # what it said before dying still counts
        self._workers.remove(dead)
        dead.conn.close()
        if dead.task is not None:
            task_id = dead.task[0]
            attempts = self._attempts.get(task_id, 0) + 1
            message = (f"worker pid {dead.proc.pid} died (exit "
                       f"{dead.proc.exitcode}) running {task_id}")
            if attempts > self.retries:
                self._attempts.pop(task_id, None)
                self._outbox.append(("gave_up", task_id, attempts, message))
            else:
                self._attempts[task_id] = attempts
                logger.warning("%s; requeueing (attempt %d)", message,
                               attempts)
                self._queue.appendleft(dead.task)
        self._workers.append(self._spawn())
        self.respawns += 1

    def close(self) -> None:
        """Stop every worker; idempotent.  No child survives this call."""
        with self._lock:
            workers, self._workers = self._workers, []
        reap([(w.proc, w.conn) for w in workers], _EXIT)
