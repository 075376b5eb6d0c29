"""Runtime validation: invariant monitor, deadlock forensics, fault injection.

Quick use::

    from repro.validate import InvariantMonitor
    monitor = InvariantMonitor(system.network, system=system).attach(system.sim)

The package exports what a run needs.  The validation table - seeded
faults, clean cells, topologies and process faults, each with its
expected outcome - is :mod:`repro.validate.scenarios`
(``python -m repro.harness check``).  See ``docs/architecture.md``
(section "Validation & fault injection").
"""

from repro.validate.faults import FaultInjector, FaultKind
from repro.validate.forensics import (
    CrashReport,
    build_wait_graph,
    crash_report,
    find_cycle,
    save_crash_report,
)
from repro.validate.invariants import (
    ALL_CHECKS,
    InvariantMonitor,
    InvariantViolation,
    flit_census,
)

__all__ = [
    "ALL_CHECKS",
    "CrashReport",
    "FaultInjector",
    "FaultKind",
    "InvariantMonitor",
    "InvariantViolation",
    "build_wait_graph",
    "crash_report",
    "find_cycle",
    "flit_census",
    "save_crash_report",
]
