"""The seeded fault-injection campaign and the static topology check.

* :func:`run_fault` / :func:`run_campaign` - inject one seeded fault per
  :class:`~repro.validate.faults.FaultKind` and assert the **expected
  checker** catches it (no false negatives), producing a crash report;
* :func:`check_topology` - port / adjacency / route-table self-check of
  one registered topology.

The other half - monitored clean runs that must report **zero
violations** (no false positives) - is ``monitored`` mode of
:mod:`repro.validate.conformance` (``python -m repro.harness check``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.noc.traffic import RequestReplyTraffic
from repro.sim.config import SystemConfig, Variant
from repro.sim.kernel import SimulationError
from repro.validate.faults import FaultInjector, FaultKind
from repro.validate.forensics import crash_report, save_crash_report
from repro.validate.invariants import InvariantMonitor, InvariantViolation

#: Which variant each fault class runs under (the one with the state the
#: fault corrupts).
FAULT_VARIANTS: Dict[FaultKind, Variant] = {
    FaultKind.DROP_RESERVATION: Variant.COMPLETE,
    FaultKind.DUP_RESERVATION: Variant.COMPLETE,
    FaultKind.CORRUPT_WINDOW: Variant.SLACKDELAY1_NOACK,
    FaultKind.LEAK_CREDIT: Variant.BASELINE,
    FaultKind.STUCK_PORT: Variant.BASELINE,
    FaultKind.DELAY_LINK: Variant.BASELINE,
    FaultKind.DROP_FLIT: Variant.BASELINE,
}

#: The checker that must catch each fault class.
EXPECTED_CHECKER: Dict[FaultKind, str] = {
    FaultKind.DROP_RESERVATION: "circuit_lifecycle",
    FaultKind.DUP_RESERVATION: "circuit_lifecycle",
    FaultKind.CORRUPT_WINDOW: "circuit_lifecycle",
    FaultKind.LEAK_CREDIT: "credit_conservation",
    FaultKind.STUCK_PORT: "forward_progress",
    FaultKind.DELAY_LINK: "link_sanity",
    FaultKind.DROP_FLIT: "flit_conservation",
}

#: Check cadence per fault: reservation/window state is transient (an
#: origin lives roughly one turnaround), so those run near-every-cycle.
FAULT_INTERVALS: Dict[FaultKind, int] = {
    FaultKind.CORRUPT_WINDOW: 1,
    FaultKind.DROP_RESERVATION: 5,
    FaultKind.DUP_RESERVATION: 5,
}

#: Localised-stall threshold per fault (only STUCK_PORT needs a tight
#: one; everywhere else it stays loose to guarantee zero false
#: positives before injection).
FAULT_STALL_THRESHOLDS: Dict[FaultKind, int] = {
    FaultKind.STUCK_PORT: 600,
}


@dataclass
class FaultOutcome:
    """One fault-injection run: detection by the right checker expected."""

    fault: str
    variant: str
    expected_checker: str
    injected: Optional[dict]
    injected_cycle: Optional[int]
    detected: bool
    checker: Optional[str]
    detect_cycle: Optional[int]
    error: Optional[str]
    report_path: Optional[str] = None
    false_positive: bool = False

    @property
    def ok(self) -> bool:
        """Detected after injection, by the checker that owns the law."""
        return (
            self.detected
            and not self.false_positive
            and self.checker == self.expected_checker
        )


def run_fault(
    kind: FaultKind,
    seed: int = 7,
    cycles: int = 4000,
    rate: float = 15.0,
    inject_at: int = 600,
    crash_dir: Optional[str] = None,
) -> FaultOutcome:
    """Inject one fault of ``kind`` and record how it was caught."""
    variant = FAULT_VARIANTS[kind]
    interval = FAULT_INTERVALS.get(kind, 25)
    stall = FAULT_STALL_THRESHOLDS.get(kind, 25_000)
    # Reservation faults need origins that outlive the check interval,
    # so those runs use a long request->reply turnaround.
    turnaround = 150 if kind in (
        FaultKind.DROP_RESERVATION, FaultKind.DUP_RESERVATION
    ) else 7
    config = SystemConfig(n_cores=16, seed=seed).with_variant(variant)
    traffic = RequestReplyTraffic(config, rate, turnaround=turnaround,
                                  seed=seed)
    monitor = InvariantMonitor(traffic.net, interval=interval,
                               stall_threshold=stall)
    injector = FaultInjector(traffic.net, kind, seed=seed,
                             at_cycle=inject_at)
    error: Optional[BaseException] = None
    checker: Optional[str] = None
    detect_cycle: Optional[int] = None
    try:
        for _ in range(cycles):
            traffic.run(1)
            injector.tick(traffic.cycle)
            monitor(traffic.cycle)
        monitor.check_now(traffic.cycle)
    except InvariantViolation as exc:
        error = exc
        checker = exc.check
        detect_cycle = exc.cycle
    except (SimulationError, RuntimeError) as exc:
        # A fault may crash the simulation machinery itself before a
        # check fires; that is detection, but by the wrong layer.
        error = exc
        checker = "simulation_error"
        detect_cycle = traffic.cycle

    outcome = FaultOutcome(
        fault=kind.value,
        variant=variant.value,
        expected_checker=EXPECTED_CHECKER[kind],
        injected=injector.description,
        injected_cycle=injector.applied_cycle,
        detected=error is not None,
        checker=checker,
        detect_cycle=detect_cycle,
        error=str(error) if error is not None else None,
        false_positive=error is not None and not injector.applied,
    )
    if error is not None and crash_dir:
        report = getattr(error, "report", None)
        if report is None:
            report = crash_report(traffic.net, error=error,
                                  cycle=traffic.cycle)
        report.data["fault"] = injector.description
        outcome.report_path = save_crash_report(
            report, crash_dir, f"fault-{kind.value}-seed{seed}"
        )
    return outcome


def run_campaign(
    kinds: Optional[Iterable[FaultKind]] = None,
    seed: int = 7,
    cycles: int = 4000,
    crash_dir: Optional[str] = None,
) -> List[FaultOutcome]:
    """Run one seeded fault per kind (default: all of them)."""
    return [
        run_fault(kind, seed=seed, cycles=cycles, crash_dir=crash_dir)
        for kind in (kinds if kinds is not None else list(FaultKind))
    ]


@dataclass
class TopologyReport:
    """Static self-check of one registered topology (zero problems
    expected): port/opposite symmetry, neighbor reciprocity, node/router
    embedding consistency, route-table reachability of every (src, dst)
    pair, and the request/reply same-routers invariant."""

    topology: str
    n_cores: int
    n_routers: int
    checks_run: int
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _walk_route(topo, vn: int, src: int, dst: int, request_xy: bool):
    """Follow the compiled route table; return (router path, problem)."""
    from repro.noc.routing import route_for_vn

    here = topo.router_of(src)
    last = topo.router_of(dst)
    path = [here]
    seen = {here}
    while here != last:
        port = route_for_vn(topo, vn, here, dst, request_xy)
        if port >= topo.local_base:
            return path, f"vn{vn} {src}->{dst} ejects at router {here}"
        here = topo.neighbor(here, port)
        if here in seen:
            return path, f"vn{vn} {src}->{dst} revisits router {here}"
        seen.add(here)
        path.append(here)
        if len(path) > topo.diameter + 1:
            return path, (f"vn{vn} {src}->{dst} exceeds the diameter "
                          f"bound {topo.diameter}")
    return path, None


def check_topology(name: str, n_cores: int = 16,
                   request_xy: bool = True) -> TopologyReport:
    """Statically verify one registered topology and its route tables."""
    from repro.noc.topology import make_topology

    topo = make_topology(name, n_cores)
    problems: List[str] = []
    checks = 0

    # Port symmetry and neighbor reciprocity.
    for router in range(topo.n_routers):
        for port, nbr, back in topo.neighbors(router):
            checks += 1
            if topo.opposite(back) != port:
                problems.append(
                    f"router {router}: opposite({back}) != {port}")
            if topo.neighbor(nbr, back) != router:
                problems.append(
                    f"router {router} port {port}: neighbor {nbr} does "
                    f"not link back through port {back}")

    # Node <-> router embedding consistency.
    for node in range(topo.n_nodes):
        checks += 1
        router = topo.router_of(node)
        if node not in topo.nodes_of(router):
            problems.append(f"node {node} missing from nodes_of({router})")
        local = topo.local_port(node)
        if not topo.local_base <= local < topo.max_radix:
            problems.append(f"node {node}: local port {local} outside "
                            f"[{topo.local_base}, {topo.max_radix})")

    # Route-table reachability + the paper's same-routers invariant.
    for src in range(topo.n_nodes):
        for dst in range(topo.n_nodes):
            checks += 1
            request, problem = _walk_route(topo, 0, src, dst, request_xy)
            if problem:
                problems.append(problem)
                continue
            reply, problem = _walk_route(topo, 1, dst, src, request_xy)
            if problem:
                problems.append(problem)
                continue
            if reply != list(reversed(request)):
                problems.append(
                    f"{src}->{dst}: reply path is not the reversed "
                    f"request path ({request} vs {reply})")

    return TopologyReport(
        topology=topo.name,
        n_cores=n_cores,
        n_routers=topo.n_routers,
        checks_run=checks,
        problems=problems,
    )
