"""Multiprocess task engine.

Every :class:`~repro.harness.experiment.RunSpec` is independent (own
system, own deterministic RNG seeded from the spec), so a sweep is
embarrassingly parallel.  :func:`run_tasks` farms ``{key: payload}``
tasks out to a :class:`repro.proc.Fleet`;
:func:`repro.harness.experiment.run_specs` hands it a batch's misses
and feeds the results back into the in-process memo, so the serial
table/figure assembly code consumes them exactly as if it had computed
them itself:

* worker count from ``jobs``, else ``REPRO_JOBS``, else one (``0`` =
  one worker per CPU core);
* per-run timeout, worker-death retries, orphan guard and shutdown are
  the fleet's (see :mod:`repro.proc`, the one supervision policy);
* progress / ETA logging through the ``repro.harness.parallel`` logger
  and an optional ``echo`` callback.

Determinism: a run's measurements depend only on its spec (seeds
included), never on scheduling, and results are assembled by spec key,
so parallel and serial execution produce bit-identical
:class:`RunResult` values.

Crash recovery is a rerun: a run keeps no checkpoint, so when a worker
dies the fleet hands its task, from the start, to a respawned worker;
and a killed sweep, submitted again, computes only what it had not
finished - completed runs come straight from the result store.
"""

from __future__ import annotations

import functools
import logging
import time
from typing import Callable, Dict, Optional

from repro.config import resolve_jobs
from repro.proc import DEFAULT_RETRIES, Fleet, ParallelError, RunTimeoutError

logger = logging.getLogger("repro.harness.parallel")


class WorkerCrashError(ParallelError):
    """A run kept killing its worker process after the allowed retries."""


def _call(worker: Callable, payload, emit):
    """Fleet task body: plain ``worker(payload)``, nothing to emit."""
    return worker(payload)


def run_tasks(
    tasks: Dict[str, object],
    worker: Callable,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    crash_retries: int = DEFAULT_RETRIES,
    echo: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run ``worker(payload)`` for every ``{key: payload}`` task.

    Returns ``{key: result}``.  Raises :class:`RunTimeoutError` if any
    run times out, :class:`WorkerCrashError` if any run is still killing
    its worker process after ``crash_retries`` retries, and re-raises
    the first ordinary worker exception.

    A task that exhausts its retries is dropped (and reported at the
    end) while the remaining tasks keep running; one poisonous
    configuration cannot abort the innocent rest of a sweep.
    """
    jobs = resolve_jobs(jobs)
    results: Dict[str, object] = {}
    timed_out: Dict[str, RunTimeoutError] = {}
    crashed: Dict[str, int] = {}
    total = len(tasks)
    started = time.monotonic()

    def _progress() -> None:
        # "done" counts terminal outcomes - successes AND timeouts -
        # so the ETA stays truthful when runs hit the timeout.
        done = len(results) + len(timed_out)
        elapsed = time.monotonic() - started
        eta = elapsed / done * (total - done) if done else float("inf")
        message = (f"[repro] {done}/{total} runs done, "
                   f"{elapsed:.0f}s elapsed, ETA {eta:.0f}s")
        logger.info(message)
        if echo is not None:
            echo(message)

    fleet = Fleet(functools.partial(_call, worker), min(jobs, total),
                  retries=crash_retries, timeout=timeout)
    try:
        for key, payload in tasks.items():
            fleet.submit(key, payload)
        while len(results) + len(timed_out) + len(crashed) < total:
            for kind, key, *data in fleet.events():
                if kind == "done":
                    results[key] = data[0]
                    _progress()
                elif kind == "gave_up":
                    # drop the culprit, keep running everything else
                    crashed[key] = data[0]
                elif kind == "failed":
                    if not isinstance(data[0], RunTimeoutError):
                        # an ordinary worker error is deterministic;
                        # don't wait for the rest of the matrix before
                        # raising it
                        raise data[0]
                    timed_out[key] = data[0]
                    _progress()
    finally:
        fleet.close()
    if crashed:
        keys = ", ".join(sorted(crashed))
        raise WorkerCrashError(
            f"worker process died repeatedly (> {crash_retries} "
            f"retries) while running: {keys}"
        )
    if timed_out:
        keys = ", ".join(sorted(timed_out))
        raise RunTimeoutError(
            f"{len(timed_out)} run(s) exceeded the {timeout:g}s "
            f"per-run timeout: {keys}"
        )
    return results
