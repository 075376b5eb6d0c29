"""The conformance matrix: one experiment, every execution mode.

"Run one configuration two ways and compare what it measured" - fast
vs. reference pipeline, activity kernel vs. always-tick, observed vs.
bare, sharded / checkpointed / resumed / served vs. one plain process -
is owned here, once:

* a :class:`Cell` names a configuration (synthetic traffic when ``load``
  is a request rate, a full CMP when it is a workload name);
* :func:`run` executes it in a *mode* - ``+``-joined :data:`MODES` flags
  such as ``"reference+always_tick"`` or ``"api+killed-resume"`` - and
  returns its :func:`witness`: ``Stats.snapshot()`` plus start / finish
  cycles (plus request / reply counts and latencies for traffic);
* :func:`diff` compares two witnesses section by section, :func:`digest`
  hashes one (``tests/golden/conformance.json`` holds the digests of the
  reference pipeline under always-tick);
* ``monitored`` mode audits a run with the
  :class:`~repro.validate.invariants.InvariantMonitor` and the paper's
  own two properties (:class:`PaperOracles`); :func:`generate` draws
  seeded cells over the whole space (:data:`AXES`).

The test suite's ``pinned`` fixture and ``tests/test_conformance.py``,
``python -m repro.harness check`` and the chaos campaign all go through
:func:`run` / :func:`diff`.  docs/architecture.md §11 has the tour.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Dict, List, Optional, Union

from repro.coherence.messages import Kind
from repro.cpu.workloads import workload_by_name
from repro.noc.topology import TOPOLOGY_CHOICES
from repro.noc.traffic import RequestReplyTraffic
from repro.sim.config import (
    CircuitMode,
    SystemConfig,
    Variant,
    small_test_config,
)
from repro.validate.invariants import InvariantMonitor, InvariantViolation

#: Flags a mode string joins with ``+``: what any cell can run in one
#: process (``fast`` is the default pipeline and kernel, the absence of
#: ``reference`` / ``always_tick``), then the engines, which need a CMP.
_IN_PROCESS = ("fast", "reference", "always_tick", "monitored", "observed",
               "profiled")
MODES = _IN_PROCESS + ("checkpoint", "killed-resume", "shards2", "shards4",
                       "api", "daemon")

#: The mode the committed goldens were generated in (at the parent of the
#: commit that introduced this module, i.e. by the reference pipeline).
GOLDEN_MODE = "reference+always_tick"

#: Cycles between audits of a ``monitored`` run (and telemetry samples
#: of an ``observed`` one), and between checkpoints of a checkpointed one.
MONITOR_INTERVAL = 250
CHECKPOINT_INTERVAL = 600

#: Highest load (requests / kcycle / node) generated for a 64-core torus.
#: The model has no dateline VCs, so above it a wrap-around ring deadlocks
#: within one virtual network: Baseline wedges at 120, Fragmented and
#: Complete_NoAck at 60, every variant drains at 48 on seeds 1 and 2
#: (pinned by ``test_torus64_deadlocks_under_load``).
TORUS64_MAX_RATE = 48.0

#: Shallowest buffers generated for Fragmented circuits: a circuit VC
#: must hold a whole 5-flit reply.  With 4 or fewer flits the buffered
#: gap hops wedge the reply VN on every topology (the 4x4 mesh already at
#: 24 requests / kcycle / node); no other variant minds depths down to 2.
FRAGMENTED_MIN_BUFFER = 5

#: Settings an ``api`` run must not inherit from the caller's shell.
_ENGINE_ENV = ("REPRO_CHECKPOINT", "REPRO_CHECKPOINT_DIR", "REPRO_RESUME",
               "REPRO_SHARDS", "REPRO_CACHE", "REPRO_SCALE", "REPRO_CHECK",
               "REPRO_CHECK_INTERVAL", "REPRO_TOPOLOGY", "REPRO_SERVICE")


@dataclass(frozen=True, repr=False)
class Cell:
    """One configuration of the matrix.  Its ``repr`` is the expression
    that rebuilds it (defaults omitted), ready to paste into a test."""

    variant: Variant
    #: Requests / kcycle / node (synthetic traffic) or a workload name
    #: (full CMP: cores + MESI + NoC).
    load: Union[float, str]
    #: Injection cycles (traffic) or measured instructions per core (CMP).
    length: int
    #: CMP only: warm-up instructions per core (0 = measure from cold).
    warmup: int = 0
    seed: int = 1
    topology: str = "mesh"
    n_cores: int = 16
    #: Request-VN virtual channels and buffer depth in flits.
    vcs: int = 2
    buffer_depth: int = 5
    #: CMP only: the paper's cache sizes, not the shrunken test ones -
    #: what a ``RunSpec`` builds, so what ``api`` / ``daemon`` modes need.
    paper_caches: bool = False

    def _non_default(self, fmt: str) -> str:
        return "".join(fmt.format(f.name, getattr(self, f.name))
                       for f in fields(self)[3:]
                       if getattr(self, f.name) != f.default)

    def __repr__(self) -> str:
        return (f"Cell(Variant.{self.variant.name}, {self.load!r}, "
                f"{self.length}{self._non_default(', {}={!r}')})")

    @property
    def id(self) -> str:
        """Stable name: the golden key and the pytest id."""
        return (f"{self.variant.value}-{self.load}-{self.length}"
                f"{self._non_default('-{}={}')}")

    @property
    def traffic(self) -> bool:
        return not isinstance(self.load, str)

    def config(self, reference: bool = False) -> SystemConfig:
        if self.traffic or self.paper_caches:
            base = SystemConfig(n_cores=self.n_cores, seed=self.seed)
        else:
            base = small_test_config(self.n_cores, seed=self.seed)
        noc = replace(base.noc, topology=self.topology,
                      fastpath=not reference,
                      vcs_per_vn=(self.vcs, base.noc.vcs_per_vn[1]),
                      buffer_depth_flits=self.buffer_depth)
        return replace(base, noc=noc).with_variant(self.variant)

    def spec(self, telemetry=None):
        """The ``RunSpec`` of this cell (``api`` / ``daemon`` modes)."""
        from repro.harness.experiment import RunSpec

        if self.traffic or (self.vcs, self.buffer_depth,
                            self.paper_caches) != (2, 5, True):
            raise ValueError(f"no RunSpec expresses {self!r}")
        return RunSpec(self.n_cores, self.variant, self.load, self.seed,
                       self.length, self.warmup, telemetry, self.topology)


# ----------------------------------------------------------------------
# Witness, diff, digest.
# ----------------------------------------------------------------------

_SECTIONS = ("counters", "means", "histograms", "cycles", "traffic")


def witness(stats, **cycles) -> dict:
    """``Stats.snapshot()`` by section, plus the run's cycles."""
    counters, means, histograms = stats.snapshot()
    if "start" in cycles:
        cycles["exec"] = cycles["finish"] - cycles["start"]
    return {"counters": counters, "means": means, "histograms": histograms,
            "cycles": cycles}


def _result_witness(result) -> dict:
    """What a ``RunResult`` keeps of the witness: means as plain floats
    (the percentiles derived from the histograms are dropped here) and,
    of the cycles, only ``exec``.  :func:`diff` compares on those terms."""
    return {
        "counters": dict(result.counters),
        "means": {key: value for key, value in result.means.items()
                  if not key.rpartition(".p")[2].isdigit()},
        "histograms": {
            key: (data["bucket_width"],
                  {int(b): n for b, n in data["buckets"].items()},
                  data["count"])
            for key, data in result.histograms.items()},
        "cycles": {"exec": result.exec_cycles},
    }


def _mean(value) -> float:
    if isinstance(value, tuple):
        return value[0] / value[1] if value[1] else 0.0
    return value


def diff(ours: dict, theirs: dict) -> Optional[str]:
    """None when two witnesses agree, else the first section that does
    not and its first diverging keys with both values."""
    for section in _SECTIONS:
        a, b = ours.get(section, {}), theirs.get(section, {})
        keys = set(a) | set(b)
        if section == "cycles":
            keys = set(a) & set(b)  # a RunResult keeps only ``exec``
        elif section == "means":  # ... and means as floats
            a = {k: _mean(v) for k, v in a.items()}
            b = {k: _mean(v) for k, v in b.items()}
        keys = [k for k in sorted(keys) if a.get(k) != b.get(k)]
        if keys:
            first = ", ".join(f"{k}: {a.get(k)!r} != {b.get(k)!r}"
                              for k in keys[:3])
            return f"{section} diverge on {len(keys)} keys (first: {first})"
    return None


def digest(measured: dict) -> str:
    """Short stable hash of a (snapshot-shaped) witness; a monitored
    run's ``audit`` record is not part of what the run measured."""
    blob = json.dumps({section: measured[section] for section in _SECTIONS
                       if section in measured}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# The paper's properties, checked on a live run.
# ----------------------------------------------------------------------

class PaperOracles:
    """Observer (the routers' / NIs' ``observer`` slot) checking what the
    circuit mechanism is built on, raising a named
    :class:`InvariantViolation`:

    ``reply_retraces_request``
        Section 4.2: a reply riding its circuit is a circuit hit at
        exactly the routers its request reserved, in reverse - every
        router of the walk for a complete circuit (so the reply flew
        through all of them: it never waited in a buffer), the request's
        whole path in ideal mode, the reserved hops when fragmented.
    ``noack_ordering``
        Section 4.6, the condition for dropping ``L1_DATA_ACK``: a
        self-acknowledged data reply is delivered before any INV / FWD
        the unblocked directory sends its L1 for that line afterwards.
    """

    _ORDERED_AFTER = (Kind.INV, Kind.FWD_GETS, Kind.FWD_GETX)

    def __init__(self, net) -> None:
        self.mode = net.config.circuit.mode
        #: Ideal mode: circuit key -> routers its request crossed, in order.
        self.request_path: Dict[tuple, List[int]] = {}
        #: reply uid -> routers where its head flit rode a circuit.
        self.hits: Dict[int, List[int]] = {}
        #: (L1 node, line) -> self-acknowledged reply still in flight.
        self.unacked: Dict[tuple, object] = {}
        self.audit = {"replies_checked": 0, "self_acks_checked": 0}
        for component in (*net.routers, *net.interfaces):
            component.observer = self

    def ni_enqueue(self, *event) -> None:
        pass

    ni_plan = ni_relay = ni_enqueue

    def router_reservation(self, router, msg, cycle) -> None:
        if self.mode is CircuitMode.IDEAL:  # the other modes carry a walk
            self.request_path.setdefault(
                msg.circuit_key, []).append(router.node)

    def router_circuit_hit(self, router, flit, cycle) -> None:
        if flit.is_head and flit.msg.ride_key is None:
            self.hits.setdefault(flit.msg.uid, []).append(router.node)

    def ni_inject(self, ni, msg, cycle, circuit) -> None:
        if getattr(msg.payload, "ack_suppressed", False):
            self.unacked[(msg.dest, msg.payload.addr)] = msg

    def ni_eject(self, ni, msg, cycle, cls) -> None:
        if msg.vn == 1:
            self._check_path(ni, msg, cycle)
        line = (ni.node, getattr(msg.payload, "addr", None))
        if self.unacked.get(line) is msg:
            del self.unacked[line]
            self.audit["self_acks_checked"] += 1
        elif msg.kind in self._ORDERED_AFTER and line in self.unacked:
            raise InvariantViolation(
                "noack_ordering",
                f"{msg.kind} for line {line[1]:#x} overtook the "
                f"self-acknowledged data reply still in flight to this L1",
                cycle=cycle, location=f"ni{ni.node}")

    def _check_path(self, ni, msg, cycle) -> None:
        hits = self.hits.pop(msg.uid, [])
        if self.mode is CircuitMode.IDEAL:
            expected = self.request_path.pop(msg.circuit_key, None)
            if not msg.uses_circuit:
                return
        elif self.mode is CircuitMode.FRAGMENTED:
            expected = msg.walk and [
                hop.node for hop in msg.walk.hops if hop.reserved]
        else:  # packet-switched replies and scroungers' last legs: None
            expected = msg.uses_circuit and [
                hop.node for hop in msg.walk.hops]
        if not isinstance(expected, list):
            return
        self.audit["replies_checked"] += 1
        if hits != expected[::-1]:
            raise InvariantViolation(
                "reply_retraces_request",
                f"reply #{msg.uid} {msg.src}->{msg.dest} rode its circuit "
                f"through routers {hits}; its request reserved {expected} "
                f"(expected the reverse)",
                cycle=cycle, location=f"ni{ni.node}")


# ----------------------------------------------------------------------
# Running a cell.
# ----------------------------------------------------------------------

def _telemetry_config(workdir: str):
    from repro.telemetry import TelemetryConfig

    return TelemetryConfig(interval=MONITOR_INTERVAL,
                           out_dir=os.path.join(workdir, "telemetry"),
                           trace_dir=os.path.join(workdir, "trace"))


@contextmanager
def _instruments(cell: Cell, flags, sim, net, system, workdir, out: dict):
    """Attach what ``flags`` ask for; yields the telemetry attach hook
    (None unless ``observed``) for the caller to fire where measurement
    starts.  A clean exit exports the telemetry artifacts into
    ``workdir`` and ends a monitored run with one last check, leaving
    what was audited in ``out["audit"]``."""
    from repro.telemetry import KernelProfiler, Telemetry

    if "always_tick" in flags:
        sim.set_always_tick(True)
    monitor = oracles = telemetry = profiler = None
    if "monitored" in flags:
        monitor = InvariantMonitor(net, system=system,
                                   interval=MONITOR_INTERVAL).attach(sim)
        if "observed" not in flags:  # one observer slot per router / NI
            oracles = PaperOracles(net)
    if "profiled" in flags:
        profiler = KernelProfiler().attach(sim)
    if "observed" in flags:
        telemetry = Telemetry(_telemetry_config(workdir))
    try:
        yield telemetry and telemetry.attach
    finally:
        for instrument in (telemetry, profiler):
            if instrument is not None:
                instrument.detach()
    if telemetry is not None:
        telemetry.export(cell.id)
    if monitor is not None:
        monitor.check_now(sim.cycle)
        out["audit"] = dict(oracles.audit if oracles else {},
                            checks_run=monitor.checks_run)


def _run_traffic(cell: Cell, flags, workdir: str) -> dict:
    driver = RequestReplyTraffic(cell.config("reference" in flags),
                                 cell.load, seed=cell.seed)
    out: dict = {}
    with _instruments(cell, flags, driver.sim, driver.net, None, workdir,
                      out) as attach:
        if attach:
            attach(driver)
        driver.run(cell.length)
        driver.drain()
    return dict(
        witness(driver.net.stats, finish=driver.cycle), **out,
        traffic={"requests_sent": driver.requests_sent,
                 "replies_received": driver.replies_received,
                 "reply_latencies": list(driver.reply_latencies)})


def _shards(flags) -> int:
    return next((int(flag[6:]) for flag in flags
                 if flag.startswith("shards")), 0)


def _kill_victim(cell: Cell, flags, workdir: str) -> None:
    """Run the cell's checkpointing twin in a child that SIGKILLs itself
    after its second checkpoint, leaving ``workdir`` to resume from."""
    import repro

    mode = "+".join(sorted(flags - {"killed-resume"} | {"checkpoint"}))
    victim = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from repro.validate.conformance import *\n"
         f"run({cell!r}, {mode!r}, sys.argv[1])\n", workdir],
        env=dict(os.environ, REPRO_CHAOS_KILL_AFTER="2",
                 PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__))),
        capture_output=True, text=True, timeout=600)
    if victim.returncode != -signal.SIGKILL:
        raise RuntimeError(
            f"{cell!r}: victim exited {victim.returncode} instead of being "
            f"killed after its 2nd checkpoint: {victim.stderr[-400:]}")


def _run_cmp(cell: Cell, flags, workdir: str) -> dict:
    from repro.sim.checkpoint import CheckpointPolicy, fingerprint
    from repro.sim.shard import run_sharded
    from repro.system import build_system

    config = cell.config("reference" in flags)
    checkpointed = bool(flags & {"checkpoint", "killed-resume"})
    ckpt_dir = os.path.join(workdir, "ckpt")
    if _shards(flags):
        result = run_sharded(
            config, cell.load, cell.warmup, cell.length,
            n_shards=_shards(flags), check="monitored" in flags,
            check_interval=MONITOR_INTERVAL,
            checkpoint_dir=ckpt_dir if checkpointed else None,
            checkpoint_interval=CHECKPOINT_INTERVAL if checkpointed else None)
        return witness(result.stats, start=result.start_cycle,
                       finish=result.finish_cycle, end=result.end_cycle)
    policy = run_state = None
    if checkpointed:
        policy = CheckpointPolicy(ckpt_dir, CHECKPOINT_INTERVAL,
                                  fingerprint(cell))
    if "killed-resume" in flags:
        _kill_victim(cell, flags, workdir)
        restored = policy.restore()
        system, run_state = restored["system"], restored["run"]
    else:
        system = build_system(config, workload_by_name(cell.load))
    out: dict = {}
    with _instruments(cell, flags, system.sim, system.network, system,
                      workdir, out) as attach:
        start, finish = system.run_script(
            cell.warmup, cell.length, policy, run_state=run_state,
            at_measure=attach and partial(attach, system))
    if policy is not None:
        policy.discard()
    return dict(witness(system.stats, start=start, finish=finish,
                        end=system.sim.cycle), **out)


def _run_api(cell: Cell, flags, workdir: str) -> dict:
    """The cell as a ``RunSpec`` through ``repro.api``: engine flags turn
    into the ``REPRO_*`` settings a user would export, ``daemon`` sends
    the spec to a one-worker job daemon instead."""
    from repro import api
    from repro.harness.experiment import fresh_memo
    from repro.service.daemon import Daemon

    if flags & {"reference", "always_tick", "profiled"}:
        raise ValueError(f"a RunSpec cannot ask for {sorted(flags)}")
    ckpt_dir = os.path.join(workdir, "ckpt")
    env = {"REPRO_CHECKPOINT_DIR": ckpt_dir}
    if flags & {"checkpoint", "killed-resume"}:
        env["REPRO_CHECKPOINT"] = str(CHECKPOINT_INTERVAL)
    if _shards(flags):
        env["REPRO_SHARDS"] = str(_shards(flags))
    if "monitored" in flags:
        env.update(REPRO_CHECK="1", REPRO_CHECK_INTERVAL=str(MONITOR_INTERVAL))
    spec = cell.spec(
        _telemetry_config(workdir) if "observed" in flags else None)
    saved = {name: os.environ.pop(name, None) for name in _ENGINE_ENV}
    os.environ.update(env)
    daemon = None
    try:
        if "killed-resume" in flags:
            _kill_victim(cell, flags, workdir)
            os.environ["REPRO_RESUME"] = "1"
        if "daemon" in flags:
            daemon = Daemon(os.path.join(workdir, "repro.sock"),
                            workers=1).start()
        with fresh_memo():
            result = api.run(spec, address=daemon and daemon.address)
    finally:
        if daemon is not None:
            daemon.shutdown()
        for name, value in saved.items():
            os.environ.pop(name, None)
            if value is not None:
                os.environ[name] = value
    if os.path.isdir(ckpt_dir) and os.listdir(ckpt_dir):
        raise RuntimeError(f"{cell!r}: the completed run left checkpoints "
                           f"behind in {ckpt_dir}")
    return _result_witness(result)


def run(cell: Cell, mode: str = "fast", workdir: Optional[str] = None) -> dict:
    """Execute ``cell`` in ``mode``; returns its witness.

    ``workdir`` (default: a private temporary directory, removed
    afterwards) receives checkpoints and telemetry artifacts.  Raises
    whatever the run raises - in ``monitored`` mode an
    :class:`InvariantViolation` on the first broken law.
    """
    flags = set(mode.split("+")) - {"fast"}
    engines = flags - set(_IN_PROCESS)
    if flags - set(MODES) or (cell.traffic and engines):
        raise ValueError(f"{cell!r} cannot run in mode {mode!r} (flags: "
                         f"{', '.join(MODES)}; engines need a CMP cell)")
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-conformance-") as tmp:
            return run(cell, mode, tmp)
    if cell.traffic:
        return _run_traffic(cell, flags, workdir)
    if flags & {"api", "daemon"}:
        return _run_api(cell, flags, workdir)
    return _run_cmp(cell, flags, workdir)


# ----------------------------------------------------------------------
# The generated half and the clean sweep.
# ----------------------------------------------------------------------

#: The space :func:`generate` (and the test suite's hypothesis strategy)
#: draws from, one axis per :class:`Cell` field: light to saturating
#: rates and four workloads, every variant (so every ``CircuitMode``).
#: :func:`legal` sizes ``length`` per kind and chip.
AXES = {
    "variant": tuple(Variant),
    "load": (1.0, 6.0, 24.0, 48.0, 120.0,
             "canneal", "fluidanimate", "fft", "water_spatial"),
    "seed": tuple(range(1, 9)),
    "topology": TOPOLOGY_CHOICES,
    "n_cores": (16, 64),
    "vcs": (2, 3),
    "buffer_depth": (3, 5),
}


def legal(cell: Cell) -> Cell:
    """Clamp a raw draw to what the model supports and tier-1 can afford:
    short runs (shorter on 64 cores), 64-core torus traffic at or below
    :data:`TORUS64_MAX_RATE`, Fragmented circuits on buffers of at least
    :data:`FRAGMENTED_MIN_BUFFER` flits."""
    big = cell.n_cores > 16
    if cell.variant is Variant.FRAGMENTED:
        cell = replace(cell, buffer_depth=max(cell.buffer_depth,
                                              FRAGMENTED_MIN_BUFFER))
    if not cell.traffic:
        return replace(cell, length=30 if big else 100, warmup=0)
    load = cell.load
    if big and cell.topology == "torus":
        load = min(load, TORUS64_MAX_RATE)
    return replace(cell, load=load, length=200 if big else 600, warmup=0)


def generate(seed: int, n: int) -> List[Cell]:
    """``n`` legal cells drawn from :data:`AXES` by ``Random(seed)``."""
    rng = random.Random(seed)
    return [legal(Cell(length=0, **{axis: rng.choice(choices)
                                    for axis, choices in AXES.items()}))
            for _ in range(n)]


def check_cells(cycles: int = 5000, n_cores: int = 16) -> List[Cell]:
    """What ``python -m repro.harness check`` audits: light traffic under
    the packet baseline, both circuit flavours, ACK elimination, timed
    windows and the ideal bound, plus one full CMP (the coherence checks
    and the NoAck ordering oracle only see something there)."""
    return [Cell(variant, 12.0, cycles, seed=3, n_cores=n_cores)
            for variant in (Variant.BASELINE, Variant.FRAGMENTED,
                            Variant.COMPLETE, Variant.COMPLETE_NOACK,
                            Variant.SLACKDELAY1_NOACK, Variant.IDEAL)] + [
        Cell(Variant.COMPLETE_NOACK, "canneal", 300, warmup=100,
             n_cores=n_cores, paper_caches=True)]
