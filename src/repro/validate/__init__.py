"""Runtime validation: invariant monitor, deadlock forensics, fault injection.

Quick use::

    from repro.validate import InvariantMonitor
    monitor = InvariantMonitor(system.network, system=system).attach(system.sim)

    from repro.validate import run_campaign
    outcomes = run_campaign()          # every fault class must be detected

See ``docs/architecture.md`` (section "Validation & fault injection").
"""

from repro.validate.campaign import (
    EXPECTED_CHECKER,
    FAULT_VARIANTS,
    FaultOutcome,
    TopologyReport,
    check_topology,
    run_campaign,
    run_fault,
)
from repro.validate.chaos import ChaosOutcome, run_chaos_campaign
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
    "EXPECTED_CHECKER",
    "FAULT_VARIANTS",
    "CrashReport",
    "FaultInjector",
    "FaultKind",
    "FaultOutcome",
    "TopologyReport",
    "check_topology",
    "InvariantMonitor",
    "InvariantViolation",
    "build_wait_graph",
    "crash_report",
    "find_cycle",
    "flit_census",
    "ChaosOutcome",
    "run_campaign",
    "run_chaos_campaign",
    "run_fault",
    "save_crash_report",
]
