"""The stable public API: one facade over both execution modes.

Every downstream consumer -- the CLI, ``run_matrix`` /
``compare_variants``, parameter sweeps, ``tools/run_reproduction.py``,
and external users -- talks to this module:

    from repro import api
    handle = api.submit(specs)            # a batch of RunSpecs
    api.status(handle)                    # per-job states
    results = api.results(handle)         # RunResults, submitted order
    for key, cycle, values in api.stream_metrics(handle):
        ...                               # live metric series
    result = api.run(spec)                # one-shot convenience

The same five calls work in two modes, chosen by configuration
(``REPRO_SERVICE`` / :func:`repro.config.resolve`):

* **in-process** (default): ``submit`` keys the batch once
  (:func:`repro.harness.experiment.spec_keys`: ``REPRO_SCALE`` and
  ``REPRO_TOPOLOGY`` read once) and computes eagerly through
  :func:`repro.harness.experiment.run_specs`, the one run path, which
  takes that ``{key: spec}`` dict as is (memo, then the store, then the
  misses one program after another, across worker processes when
  ``jobs``/``REPRO_JOBS`` allow), so the handle is already complete;
* **daemon** (``REPRO_SERVICE=<socket path or host:port>``): ``submit``
  enqueues on the shared job daemon (:mod:`repro.service`) and
  ``results`` blocks on completion.

``prefetch``, ``run_matrix`` and ``compare_variants`` are one
``submit`` + ``results`` batch each.  Results are bit-identical across
modes -- the daemon's workers run the same compute step
(:func:`repro.harness.experiment._compute`) on the spec it scaled and
keyed at submit -- and daemon results are fed into the local experiment
memo, so assembly code (tables, figures) consumes them either way.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro import config as repro_config
from repro.harness.experiment import RunResult, RunSpec
from repro.sim.config import Variant

__all__ = [
    "JobHandle",
    "submit",
    "run",
    "status",
    "results",
    "stream_metrics",
    "prefetch",
    "run_matrix",
    "compare_variants",
    "map_tasks",
    "service_address",
]


class JobHandle:
    """Opaque handle for one submitted batch (order = submission order)."""

    def __init__(self, backend, specs: List[RunSpec], job_ids: List[str],
                 keys: List[str]) -> None:
        self._backend = backend
        self.specs = specs
        self.job_ids = job_ids
        self.keys = keys
        #: in-process mode: results, filled at submit time.
        self._results: Optional[List[RunResult]] = None
        #: in-process mode: {key: [(cycle, values), ...]} per observed spec.
        self._metrics: Dict[str, List[Tuple[int, Dict[str, float]]]] = {}

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:
        return (f"JobHandle({len(self.specs)} job(s) via "
                f"{self._backend.name})")

    # Convenience forwarding so a handle is usable on its own.
    def status(self) -> List[dict]:
        return status(self)

    def results(self, timeout: Optional[float] = None) -> List[RunResult]:
        return results(self, timeout=timeout)

    def stream_metrics(self):
        return stream_metrics(self)


# ----------------------------------------------------------------------
# Backends.
# ----------------------------------------------------------------------

class _InProcessBackend:
    """Eager local execution: the handle is complete when submit returns."""

    name = "in-process"

    def submit(self, specs: List[RunSpec], jobs: Optional[int] = None,
               safe: bool = True, echo=None) -> JobHandle:
        from repro.harness import experiment

        specs = list(specs)
        keys = experiment.spec_keys(specs)
        handle = JobHandle(self, specs, list(keys), keys)
        done = experiment.run_specs(
            experiment.unobserved_by_key(keys, specs), jobs, safe=safe,
            echo=echo)
        collected: List[RunResult] = []
        for spec, key in zip(specs, keys):
            if not spec.observed:
                collected.append(done[key])
                continue
            buffer: List[Tuple[int, Dict[str, float]]] = []

            def _capture(cycle, values, _buffer=buffer):
                _buffer.append((cycle, dict(values)))

            handle._metrics[key] = buffer
            collected.append(experiment.run_experiment_safe(replace(
                spec, telemetry=replace(spec.telemetry, on_sample=_capture))))
        handle._results = collected
        return handle

    def status(self, handle: JobHandle) -> List[dict]:
        return [
            {"job_id": job_id, "key": key, "state": "done", "source": "run"}
            for job_id, key in zip(handle.job_ids, handle.keys)
        ]

    def results(self, handle: JobHandle,
                timeout: Optional[float] = None) -> List[RunResult]:
        return list(handle._results)

    def stream_metrics(self, handle: JobHandle):
        for spec, key in zip(handle.specs, handle.keys):
            if not spec.observed:
                continue
            for cycle, values in handle._metrics.get(key, ()):
                yield key, cycle, values


class _DaemonBackend:
    """Thin client of a :class:`repro.service.Daemon`."""

    def __init__(self, address: str) -> None:
        from repro.service import ServiceClient

        self.address = address
        self.client = ServiceClient(address)

    @property
    def name(self) -> str:
        return f"daemon {self.address}"

    def submit(self, specs: List[RunSpec], jobs: Optional[int] = None,
               safe: bool = True, echo=None) -> JobHandle:
        # ``jobs`` is a local-fan-out knob; the daemon sizes its own fleet,
        # and always degrades failures (:func:`_batch` raises for them).
        specs = list(specs)
        if echo is not None:
            echo(f"submitting {len(specs)} spec(s) to the job daemon at "
                 f"{self.address}")
        statuses = self.client.submit(specs)
        return JobHandle(
            self, specs,
            [row["job_id"] for row in statuses],
            [row["key"] for row in statuses],
        )

    def status(self, handle: JobHandle) -> List[dict]:
        return self.client.status(handle.job_ids)

    def results(self, handle: JobHandle,
                timeout: Optional[float] = None) -> List[RunResult]:
        from repro.harness import experiment
        from repro.service import ServiceError

        rows = self.client.results(handle.job_ids, timeout=timeout)
        out: List[RunResult] = []
        for row, spec, key in zip(rows, handle.specs, handle.keys):
            entry = row.get("result")
            if entry is not None:
                try:
                    result = RunResult.from_json(entry)
                except TypeError as exc:
                    raise ServiceError(
                        f"job {row.get('job_id')}: the daemon's result is "
                        f"not a RunResult of this build ({exc})") from None
            elif row.get("state") == "failed":
                # Infrastructure failure (worker kept dying, timeout):
                # surface it exactly like a degraded simulation failure.
                result = RunResult(
                    spec_key=row.get("key", key),
                    n_cores=spec.n_cores,
                    variant=spec.variant.value,
                    workload=spec.workload,
                    exec_cycles=0,
                    error=row.get("error", "job failed"),
                    error_kind=row.get("error_kind", "ServiceError"),
                )
            else:
                raise ServiceError(
                    f"job {row.get('job_id')} finished in state "
                    f"{row.get('state')!r} without a result")
            # Seed the local memo so serial assembly (tables/figures)
            # consumes daemon results exactly like experiment.run_specs'.
            experiment._memo.setdefault(result.spec_key, result)
            out.append(result)
        return out

    def stream_metrics(self, handle: JobHandle):
        for spec, job_id, key in zip(handle.specs, handle.job_ids,
                                     handle.keys):
            if not spec.observed:
                continue
            for event in self.client.stream(job_id):
                if event.get("event") == "metric":
                    yield key, event["cycle"], event["values"]


_IN_PROCESS = _InProcessBackend()


def service_address() -> str:
    """The configured daemon address ('' = in-process mode)."""
    return repro_config.resolve("service")


def _backend(address: Optional[str] = None):
    if address is None:
        address = service_address()
    return _DaemonBackend(address) if address else _IN_PROCESS


# ----------------------------------------------------------------------
# The five facade calls.
# ----------------------------------------------------------------------

def submit(specs: Iterable[RunSpec], jobs: Optional[int] = None,
           address: Optional[str] = None) -> JobHandle:
    """Submit a batch of specs; returns a :class:`JobHandle`."""
    return _backend(address).submit(list(specs), jobs=jobs)


def status(handle: JobHandle) -> List[dict]:
    """Per-job state dicts for the batch, in submission order."""
    return handle._backend.status(handle)


def results(handle: JobHandle,
            timeout: Optional[float] = None) -> List[RunResult]:
    """Block until every job completes; RunResults in submission order.

    Simulation failures come back as failure RunResults (check
    ``result.failed``), matching ``run_experiment_safe``.
    """
    return handle._backend.results(handle, timeout=timeout)


def stream_metrics(handle: JobHandle
                   ) -> Iterator[Tuple[str, int, Dict[str, float]]]:
    """Yield ``(spec_key, cycle, {metric: value})`` samples for every
    telemetry-observed job in the batch.

    Against the daemon this is live: samples arrive while the runs are
    in flight (plus a bounded replay of samples emitted before the call).
    In-process, submission is eager, so the full buffered series is
    replayed.
    """
    return handle._backend.stream_metrics(handle)


def run(spec: RunSpec, address: Optional[str] = None) -> RunResult:
    """Run one spec to completion; raises on simulation failure."""
    backend = _backend(address)
    if backend is _IN_PROCESS:
        from repro.harness import experiment

        return experiment.run_experiment(spec)
    result = backend.results(backend.submit([spec]))[0]
    if result.failed:
        raise RuntimeError(
            f"{result.error_kind or 'SimulationError'}: {result.error} "
            f"(spec {result.spec_key})")
    return result


# ----------------------------------------------------------------------
# Sweep helpers (the canonical homes; old spellings are shims).
# ----------------------------------------------------------------------

def _batch(specs: List[RunSpec], jobs: Optional[int], safe: bool,
           echo=None) -> List[RunResult]:
    """``submit`` + ``results`` of one batch through the active backend:
    its RunResults in order, every one memoised.  Without ``safe`` a
    failed run raises (in-process, the simulation error itself)."""
    backend = _backend()
    done = backend.results(backend.submit(specs, jobs, safe=safe, echo=echo))
    for result in done:
        if result.failed and not safe:
            raise RuntimeError(
                f"{result.error_kind}: {result.error} "
                f"(spec {result.spec_key})")
    return done


def prefetch(specs: Iterable[RunSpec], jobs: Optional[int] = None,
             safe: bool = False, echo=None) -> None:
    """Compute a batch through the active backend, seeding the memo.

    The shared daemon fleet computes it in service mode, else
    :func:`repro.harness.experiment.run_specs` does.  ``echo`` receives
    progress lines; without ``safe`` a failed run raises.  Observed
    specs are skipped: their point is a run of their own.
    """
    specs = [spec for spec in specs if not spec.observed]
    if specs:
        _batch(specs, jobs, safe, echo)


def run_matrix(n_cores: int, variants: Iterable[Variant],
               workloads: Iterable[str], seed: int = 1,
               jobs: Optional[int] = None,
               fail_fast: Optional[bool] = None,
               ) -> Dict[Variant, Dict[str, RunResult]]:
    """Sweep variants x workloads; returns results[variant][workload].

    One batch through the active backend -- worker processes in-process
    (``jobs`` / ``REPRO_JOBS``), the shared daemon fleet in service mode
    -- so the returned results are bit-identical to a serial sweep.

    By default a failing run (deadlock/invariant violation) degrades to
    a failure :class:`RunResult` and the sweep continues; pass
    ``fail_fast=True`` (or set ``REPRO_FAILFAST=1``) to abort on the
    first simulation error instead.
    """
    from repro.harness import experiment

    variants = list(variants)
    workloads = list(workloads)
    done = iter(_batch([RunSpec(n_cores, variant, workload, seed)
                        for variant in variants for workload in workloads],
                       jobs, experiment.degrades(fail_fast)))
    return {variant: {workload: next(done) for workload in workloads}
            for variant in variants}


def compare_variants(workload: str, n_cores: int = 16,
                     variants: Optional[Iterable[Variant]] = None,
                     seed: int = 1,
                     jobs: Optional[int] = None
                     ) -> Dict[str, Dict[str, float]]:
    """One-call comparison of circuit variants on a single workload.

    Returns, per variant name: speedup vs. baseline, normalised network
    energy, mean circuit-eligible reply latency, and circuit success rate.
    The convenient entry point for downstream users exploring the design
    space (``from repro import compare_variants``).
    """
    if variants is None:
        variants = [Variant.BASELINE, Variant.FRAGMENTED, Variant.COMPLETE,
                    Variant.COMPLETE_NOACK, Variant.SLACKDELAY1_NOACK,
                    Variant.IDEAL]
    variants = list(variants)
    base, *done = _batch([RunSpec(n_cores, v, workload, seed)
                          for v in [Variant.BASELINE] + variants],
                         jobs, safe=False)
    out: Dict[str, Dict[str, float]] = {}
    for variant, result in zip(variants, done):
        replies = result.counter("circuit.replies_total")
        out[variant.value] = {
            "speedup": base.exec_cycles / result.exec_cycles,
            "energy_vs_baseline": result.energy_total / base.energy_total,
            "reply_latency": result.mean("lat.net.crep"),
            "reply_latency_p95": result.percentile("lat.net.crep", 95),
            "circuit_success": (
                result.counter("circuit.outcome.on_circuit") / replies
                if replies else 0.0
            ),
        }
    return out


def map_tasks(tasks: Dict[str, object], worker, jobs: Optional[int] = None,
              timeout: Optional[float] = None, echo=None
              ) -> Dict[str, object]:
    """Run ``worker(payload)`` for arbitrary ``{key: payload}`` tasks.

    Arbitrary callables cannot cross the service wire, so this always
    fans out locally (:func:`repro.harness.parallel.run_tasks`); sweeps
    built from :class:`RunSpec` batches should use :func:`submit`, which
    is daemon-aware.
    """
    from repro.harness import parallel

    return parallel.run_tasks(tasks, worker, jobs=jobs, timeout=timeout,
                              echo=echo)
