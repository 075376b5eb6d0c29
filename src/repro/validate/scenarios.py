"""The validation table: perturb, then demand a declared outcome.

Every way the repo proves its checkers fire is one :class:`Scenario`
row of :func:`table` - a name, a perturbation, and the outcome it must
produce - and :func:`run_scenarios` runs rows and judges them, one
:class:`Outcome` each (``python -m repro.harness check`` prints one line
per row).  A row's ``run`` is called with its perturbation and reports
what happened in the words of the expected outcome:

* ``fires(checker)`` - a named checker of the
  :class:`~repro.validate.invariants.InvariantMonitor` caught the
  fault (7 seeded model faults from :mod:`repro.validate.faults`);
* :data:`CLEAN` - zero violations or problems (monitored conformance
  cells that must audit real traffic, static topology checks, process
  runs that must not trip their supervisor);
* :data:`IDENTICAL` - a run that lost a worker to a process fault
  (:mod:`repro.validate.chaos`) is bit-identical to a reference;
* ``raises(error)`` - the run failed with exactly that typed error.

The perturbation is a field of its own, so a row can be run without it
(``dataclasses.replace(row, perturbation=None)``): every perturbed row
must then fail.  No row's worker process may outlive it (the runner
watches ``REPRO_SHARD_PIDFILE``, which :func:`repro.proc.spawn` appends
every pid to).
"""

from __future__ import annotations

import os
import tempfile
import time
import traceback
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from repro import config as repro_config
from repro._record import record
from repro.noc.topology import TOPOLOGY_CHOICES
from repro.noc.traffic import RequestReplyTraffic
from repro.sim.config import CircuitMode, SystemConfig, Variant
from repro.sim.kernel import SimulationError
from repro.validate import conformance
from repro.validate.faults import FaultInjector, FaultKind
from repro.validate.forensics import crash_report, save_crash_report
from repro.validate.invariants import InvariantMonitor, InvariantViolation

#: Zero violations or problems.
CLEAN = "clean"
#: Bit-identical to a reference run.
IDENTICAL = "identical"


def fires(checker: str) -> str:
    """The outcome "``checker`` caught it"."""
    return f"fires {checker}"


def raises(error: str) -> str:
    """The outcome "the run failed with the typed error ``error``"."""
    return f"raises {error}"


#: What a row's ``run`` returns: the observed outcome and a detail line.
Observed = Tuple[str, str]


@record(frozen=True)
class Scenario:
    """One row: ``run(perturbation)`` must observe ``expect``."""

    name: str
    #: ``(perturbation) -> Observed``
    run: Callable
    perturbation: object
    expect: str


@record
class Outcome:
    """What one row observed, against what it expected."""

    name: str
    expect: str
    observed: str
    detail: str
    seconds: float

    @property
    def ok(self) -> bool:
        return self.observed == self.expect

    def line(self, width: int = 0) -> str:
        """The row's report line."""
        verdict = "ok  " if self.ok else \
            f"FAIL expected {self.expect}, observed {self.observed}:"
        return (f"  {self.name:{width}s} {verdict} {self.detail} "
                f"({self.seconds:.1f}s)")


# ----------------------------------------------------------------------
# Row bodies: model faults, clean cells, topologies.
# ----------------------------------------------------------------------

#: Cycles of the traffic run a model fault is injected into, the cycle
#: injection starts at, and its load (requests / kcycle / node).
FAULT_CYCLES = 4000
INJECT_AT = 600
FAULT_RATE = 15.0

#: Injection cycles of every clean traffic cell.
CLEAN_CYCLES = 4000


def _model_fault(seed: int, crash_dir: Optional[str], variant: Variant,
                 interval: int, stall_threshold: int, turnaround: int,
                 kind: Optional[FaultKind]) -> Observed:
    """A monitored 16-core traffic run under ``variant``, with one seeded
    fault of ``kind`` injected from :data:`INJECT_AT` on: which checker
    fired, and (into ``crash_dir``) its crash report."""
    config = SystemConfig(n_cores=16, seed=seed).with_variant(variant)
    traffic = RequestReplyTraffic(config, FAULT_RATE, turnaround=turnaround,
                                  seed=seed)
    monitor = InvariantMonitor(traffic.net, interval=interval,
                               stall_threshold=stall_threshold)
    injector = kind and FaultInjector(traffic.net, kind, seed=seed,
                                      at_cycle=INJECT_AT)
    try:
        for _ in range(FAULT_CYCLES):
            traffic.run(1)
            if injector:
                injector.tick(traffic.cycle)
            monitor(traffic.cycle)
        monitor.check_now(traffic.cycle)
    except (SimulationError, RuntimeError) as exc:
        # A fault may crash the simulation machinery before a check
        # fires: detection, but by the wrong layer.
        error = exc
    else:
        return CLEAN, f"{monitor.checks_run} checks, nothing fired"
    if isinstance(error, InvariantViolation):
        observed, cycle = fires(error.check), error.cycle
    else:
        observed, cycle = fires("simulation_error"), traffic.cycle
    if not (injector and injector.applied):
        return f"{observed} before injection", str(error)
    detail = f"{injector.description} caught at cycle {cycle}"
    if crash_dir:
        report = getattr(error, "report", None) or crash_report(
            traffic.net, error=error, cycle=traffic.cycle)
        report.data["fault"] = injector.description
        path = save_crash_report(report, crash_dir,
                                 f"fault-{kind.value}-seed{seed}")
        detail += f", report {path}"
    return observed, detail


def _clean(cell: conformance.Cell, _perturbation: None) -> Observed:
    """``cell`` in ``monitored`` mode: no violation, and an audit that
    saw traffic - at least ``length / MONITOR_INTERVAL`` periodic checks
    (and one) besides the closing one, and circuit replies judged on a
    circuit variant."""
    try:
        audit = conformance.run(cell, "monitored")["audit"]
    except InvariantViolation as exc:
        return fires(exc.check), str(exc)
    checks, replies = audit["checks_run"], audit["replies_checked"]
    detail = (f"{checks} checks, {replies} circuit replies, "
              f"{audit['self_acks_checked']} self-acks")
    circuits = cell.config().circuit.mode is not CircuitMode.NONE
    if checks - 1 < max(1, cell.length // conformance.MONITOR_INTERVAL) \
            or (circuits and not replies):
        return "audited no traffic", detail
    return CLEAN, detail


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


def _topology(name: str, n_cores: int, _perturbation: None) -> Observed:
    """Static self-check of one registered topology: port / opposite
    symmetry, neighbor reciprocity, node / router embedding, route-table
    reachability of every (src, dst) pair, and the paper's request /
    reply same-routers invariant."""
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
            request, problem = _walk_route(topo, 0, src, dst, True)
            if problem:
                problems.append(problem)
                continue
            reply, problem = _walk_route(topo, 1, dst, src, True)
            if problem:
                problems.append(problem)
                continue
            if reply != list(reversed(request)):
                problems.append(
                    f"{src}->{dst}: reply path is not the reversed "
                    f"request path ({request} vs {reply})")

    if problems:
        return f"{len(problems)} problems", "; ".join(problems[:3])
    return CLEAN, f"{checks} checks, {topo.n_routers} routers"


# ----------------------------------------------------------------------
# The table.
# ----------------------------------------------------------------------

def table(seed: int = 7, n_cores: int = 16,
          crash_dir: Optional[str] = None) -> List[Scenario]:
    """Every row: the model faults (placed by ``seed``, crash reports
    into ``crash_dir``), the clean cells and topologies (at ``n_cores``)
    and the process faults."""
    from repro.validate import chaos

    fault = partial(_model_fault, seed, crash_dir)
    rows = [
        Scenario(kind.value,
                 partial(fault, variant, interval, stall, turnaround),
                 kind, fires(checker))
        # Reservation and window state is transient (an origin lives
        # about one turnaround), so those faults are checked near every
        # cycle, and reservations get a long request->reply turnaround.
        # Only a stuck port needs a tight stall threshold: everywhere
        # else it stays loose, so nothing fires before injection.
        for kind, variant, checker, interval, stall, turnaround in (
            (FaultKind.DROP_RESERVATION, Variant.COMPLETE,
             "circuit_lifecycle", 5, 25_000, 150),
            (FaultKind.DUP_RESERVATION, Variant.COMPLETE,
             "circuit_lifecycle", 5, 25_000, 150),
            (FaultKind.LEAK_CREDIT, Variant.BASELINE,
             "credit_conservation", 25, 25_000, 7),
            (FaultKind.CORRUPT_WINDOW, Variant.SLACKDELAY1_NOACK,
             "circuit_lifecycle", 1, 25_000, 7),
            (FaultKind.STUCK_PORT, Variant.BASELINE,
             "forward_progress", 25, 600, 7),
            (FaultKind.DELAY_LINK, Variant.BASELINE,
             "link_sanity", 25, 25_000, 7),
            (FaultKind.DROP_FLIT, Variant.BASELINE,
             "flit_conservation", 25, 25_000, 7),
        )]
    # Light traffic under the packet baseline, both circuit flavours,
    # ACK elimination, timed windows and the ideal bound, plus one full
    # CMP (the coherence checks and the NoAck ordering oracle only see
    # something there).
    cells = [conformance.Cell(variant, 12.0, CLEAN_CYCLES, seed=3,
                              n_cores=n_cores)
             for variant in (Variant.BASELINE, Variant.FRAGMENTED,
                             Variant.COMPLETE, Variant.COMPLETE_NOACK,
                             Variant.SLACKDELAY1_NOACK, Variant.IDEAL)]
    cells.append(conformance.Cell(Variant.COMPLETE_NOACK, "canneal", 300,
                                  warmup=100, n_cores=n_cores,
                                  paper_caches=True))
    rows += [Scenario(cell.id, partial(_clean, cell), None, CLEAN)
             for cell in cells]
    rows += [Scenario(f"topology-{name}", partial(_topology, name, n_cores),
                      None, CLEAN)
             for name in TOPOLOGY_CHOICES]
    return rows + chaos.ROWS


# ----------------------------------------------------------------------
# The runner.
# ----------------------------------------------------------------------

def spawned_pids() -> List[int]:
    """Every worker pid :func:`repro.proc.spawn` started inside the
    current row."""
    with open(repro_config.resolve("shard_pidfile")) as handle:
        return [int(line) for line in handle if line.strip()]


class _PidWatch:
    """Record every worker pid spawned inside the block."""

    def __enter__(self) -> "_PidWatch":
        handle = tempfile.NamedTemporaryFile(
            mode="w", suffix=".pids", delete=False)
        handle.close()
        self.path = handle.name
        self._saved = os.environ.pop("REPRO_SHARD_PIDFILE", None)
        os.environ["REPRO_SHARD_PIDFILE"] = self.path
        return self

    def __exit__(self, *exc_info) -> None:
        if self._saved is None:
            os.environ.pop("REPRO_SHARD_PIDFILE", None)
        else:  # pragma: no cover - nested runners
            os.environ["REPRO_SHARD_PIDFILE"] = self._saved
        os.unlink(self.path)

    def leaked(self) -> List[int]:
        """The spawned pids still alive after a grace period."""
        alive = []
        deadline = time.time() + 10  # grace for SIGKILLed procs to reap
        for pid in spawned_pids():
            while True:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                except PermissionError:  # pragma: no cover - pid reuse
                    break
                if time.time() > deadline:
                    alive.append(pid)
                    break
                time.sleep(0.1)
        return alive


def run_scenarios(rows: Sequence[Scenario],
                  echo: Optional[Callable[[str], None]] = None
                  ) -> List[Outcome]:
    """Run every row; one :class:`Outcome` each, its report line passed
    to ``echo`` as soon as the row is judged.  An exception a row raises
    is its observed outcome (``raises <type>``)."""
    width = max((len(row.name) for row in rows), default=0)
    outcomes = []
    for row in rows:
        started = time.perf_counter()
        with _PidWatch() as watch:
            try:
                observed, detail = row.run(row.perturbation)
            except Exception as exc:  # noqa: BLE001 - a verdict
                observed = raises(type(exc).__name__)
                # an unexpected error keeps its traceback
                detail = str(exc) if observed == row.expect \
                    else traceback.format_exc()
            leaked = watch.leaked()
        if leaked:
            observed, detail = "leaks workers", f"{leaked}; {detail}"
        outcome = Outcome(row.name, row.expect, observed, detail,
                          time.perf_counter() - started)
        outcomes.append(outcome)
        if echo is not None:
            echo(outcome.line(width))
    return outcomes
