"""Experiment harness reproducing every table and figure of the paper.

Sweeps (``run_matrix`` / ``compare_variants``) live in :mod:`repro.api`.
Each public name imports its module on first use (PEP 562), so
``import repro.harness`` starts no worker-fleet machinery.
"""

from repro import _lazy_exports

#: Public name -> the module that defines it.
_EXPORTS = {
    "ParallelError": "repro.proc",
    "ShardedCache": "repro.harness.cache",
    "open_cache": "repro.harness.cache",
    "RunResult": "repro.harness.experiment",
    "RunSpec": "repro.harness.experiment",
    "RunTimeoutError": "repro.proc",
    "WorkerCrashError": "repro.harness.parallel",
    "default_workloads": "repro.harness.experiment",
    "resolve_jobs": "repro.config",
    "run_experiment": "repro.harness.experiment",
    "run_specs": "repro.harness.experiment",
}

__all__ = list(_EXPORTS)

_lazy_exports(globals(), _EXPORTS)
