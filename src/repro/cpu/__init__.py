"""Cores and synthetic workloads (the paper's Simics/GEMS substitution)."""

from repro import _lazy_exports

#: Public name -> the module that defines it.
_EXPORTS = {
    "ALL_WORKLOADS": "repro.cpu.workloads",
    "AccessStream": "repro.cpu.trace",
    "Core": "repro.cpu.core",
    "MULTIPROGRAMMED_MIX": "repro.cpu.workloads",
    "PARALLEL_WORKLOADS": "repro.cpu.workloads",
    "StreamParams": "repro.cpu.trace",
    "WorkloadProfile": "repro.cpu.workloads",
    "workload_by_name": "repro.cpu.workloads",
}

__all__ = list(_EXPORTS)

_lazy_exports(globals(), _EXPORTS)
