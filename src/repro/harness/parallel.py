"""Multiprocess experiment engine.

Every :class:`~repro.harness.experiment.RunSpec` is independent (own
system, own deterministic RNG seeded from the spec), so a sweep is
embarrassingly parallel.  This module farms specs out to a
:class:`repro.proc.Fleet` and feeds the results back into the
in-process memo, so the serial table/figure assembly code consumes them
exactly as if it had computed them itself:

* worker count from ``REPRO_JOBS`` (``0`` = one worker per CPU core,
  which is also the default when the engine is invoked explicitly);
* per-run timeout, worker-death retries, orphan guard and shutdown are
  the fleet's (see :mod:`repro.proc`, the one supervision policy);
* progress / ETA logging through the ``repro.harness.parallel`` logger
  and an optional ``echo`` callback.

Determinism: a run's measurements depend only on its spec (seeds
included), never on scheduling, and results are assembled by spec key,
so parallel and serial execution produce bit-identical
:class:`RunResult` values.

Crash recovery composes with checkpointing (``REPRO_CHECKPOINT`` /
``REPRO_RESUME``, see :mod:`repro.sim.checkpoint`): workers inherit the
environment and checkpoint directories are keyed by spec key, so each
run in a parallel sweep checkpoints independently and a re-submitted
sweep resumes every interrupted run from its own newest snapshot —
completed runs come straight from the result cache.
"""

from __future__ import annotations

import functools
import logging
import os
import time
from typing import Callable, Dict, Iterable, Optional

from repro.proc import DEFAULT_RETRIES, Fleet, ParallelError, RunTimeoutError

logger = logging.getLogger("repro.harness.parallel")


class WorkerCrashError(ParallelError):
    """A run kept killing its worker process after the allowed retries."""


def resolve_jobs(jobs: Optional[int] = None, default: int = 1) -> int:
    """Worker-process count: explicit value, else ``REPRO_JOBS``, else
    ``default``.  ``0`` means one worker per CPU core.
    """
    if jobs is None:
        from repro import config as repro_config

        jobs = repro_config.resolve("jobs")
        if jobs is None:
            jobs = default
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(
            f"REPRO_JOBS / --jobs must be >= 0 "
            f"(0 = one worker per CPU core), got {jobs}"
        )
    return jobs


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


def run_specs(
    specs: Iterable,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    echo: Optional[Callable[[str], None]] = None,
    safe: bool = False,
):
    """Compute every spec across worker processes; seed the local memo.

    Returns ``{scaled spec key: RunResult}``.  Specs already memoised in
    this process are served locally; the rest are deduplicated by key and
    farmed out.  Afterwards ``run_experiment`` on any of these specs is a
    memo hit, so serial assembly code (tables, figures) transparently
    consumes parallel results.

    With ``safe=True`` workers degrade simulation failures to failure
    RunResults (see :func:`experiment.run_experiment_safe`) instead of
    aborting the sweep.
    """
    from repro.harness import experiment

    jobs = resolve_jobs(jobs, default=0)
    unique: Dict[str, object] = {}
    for spec in specs:
        unique.setdefault(spec.scaled().key(), spec)

    results = {}
    pending: Dict[str, object] = {}
    for key, spec in unique.items():
        if key in experiment._memo:
            results[key] = experiment._memo[key]
        else:
            pending[key] = spec

    runner = experiment.run_experiment_safe if safe else experiment.run_experiment
    if pending:
        if jobs <= 1 or len(pending) == 1:
            # The serial fallback must uphold this function's memo
            # contract itself (not rely on the runner's internals), so
            # both execution paths seed the memo identically.
            for key, spec in pending.items():
                result = runner(spec)
                experiment._memo[key] = result
                results[key] = result
        else:
            logger.info("running %d spec(s) across %d worker processes",
                        len(pending), jobs)
            computed = run_tasks(pending, worker=runner, jobs=jobs,
                                 timeout=timeout, echo=echo)
            for key, result in computed.items():
                experiment._memo[key] = result
                results[key] = result
    return results
