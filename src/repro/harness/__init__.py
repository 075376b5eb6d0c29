"""Experiment harness reproducing every table and figure of the paper.

Sweeps (``run_matrix`` / ``compare_variants``) live in :mod:`repro.api`.
"""

from repro.harness.cache import ShardedCache, open_cache
from repro.harness.experiment import (
    RunResult,
    RunSpec,
    default_workloads,
    run_experiment,
)
from repro.harness.parallel import (
    ParallelError,
    RunTimeoutError,
    WorkerCrashError,
    resolve_jobs,
    run_specs,
)

__all__ = [
    "ParallelError",
    "ShardedCache",
    "open_cache",
    "RunResult",
    "RunSpec",
    "RunTimeoutError",
    "WorkerCrashError",
    "default_workloads",
    "resolve_jobs",
    "run_experiment",
    "run_specs",
]
