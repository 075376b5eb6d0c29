"""Sharded-mesh parallel simulation: one run spread across processes.

The mesh is split into horizontal row bands (``repro.partition.shard_bands``)
and each band's activity kernel runs in its own worker process.  The
architecture's own safety contract - every cross-component channel
carries >= 1 cycle of latency - is exactly the lookahead a conservative
parallel discrete-event simulation needs: a flit placed on a boundary
link during cycle ``c`` cannot be observed by the receiving router before
cycle ``c + 1 + link_latency``.  Workers therefore advance in lockstep
windows of ``W`` cycles (``W <= link_latency + 1``) and exchange all
boundary flits/credits at window barriers; every transferred item lands
in the receiving replica's arrival calendar no later than its due cycle,
before that cycle runs, so no shard can ever observe an event out of
order.

Determinism / bit-identity argument (gated by
``tests/test_shard_equivalence.py``):

* every worker builds the *complete* :class:`~repro.system.CmpSystem`
  from the same config/seed - construction and functional prewarm
  consume the deterministic RNG streams identically everywhere - but
  registers only its local band with the kernel: the local tiles and
  the router core, whose calendar only ever holds entries due at local
  routers and NIs.  Foreign tiles keep ``kernel_wake = None`` and never
  tick, so a foreign NI is never handed work and the core never runs it;
* boundary traffic is router-core calendar entries: at each barrier the
  sender harvests every entry bound for a foreign router, and the
  receiver files it - same ``due`` cycle, same key, same order - in its
  own calendar, whose per-bucket sort by key then replays the
  single-process order, so the router/NI hot paths run unchanged.  An
  NI's key always belongs to the shard of the NI's router, so NI-bound
  entries never cross;
* local components tick in a subsequence of the single-process
  registration order, and window barriers land exactly on the
  single-process ``run_until`` check boundaries, so completion cycles
  and every statistic are bit-identical;
* per-shard :class:`~repro.sim.stats.Stats` are merged by ascending
  shard index (all summed quantities are integer-valued, so merged
  means/histograms are exact).

Run control: every worker walks the same warm-up -> drain -> measure
script as a single process - :func:`repro.system.run_phases` over its
local cores - and supplies only how one armed phase executes here: the
windowed barrier loop ``_ShardWorker._run_phase``, whose end-of-phase
vote is the phase's own predicate (``CmpSystem.phase_done``; plus, for a
drain, a veto while this shard has flits in transit between processes)
AND-reduced by the coordinator.  Deadlines, check cadences and the stall window come from
the one phase table in :mod:`repro.system`.

Message identity across the wire: flits are pickled per destination
batch, and the receiver canonicalises unpickled copies by ``uid`` (each
worker draws uids from a disjoint range) so all flits of one message
share one :class:`~repro.noc.flit.Message` object again, exactly as in a
single process.

Recovery is a rerun: when a worker dies, or stays silent past the
receive timeout, the coordinator reaps every worker and starts the whole
sharded run again from scratch, at most ``respawn_limit`` times per run.
The run is deterministic, so a rerun's result is bit-identical.  Anything
a worker reports *deterministically* (deadlock, invariant violation) is
not retried - only process death/unresponsiveness is.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import time
from dataclasses import field
from typing import Dict, List, Optional, Tuple

from repro import config as repro_config
from repro._record import record
from repro.noc.router import post
from repro.proc import reap, recv_or_exit, spawn
from repro.sim.kernel import DeadlockError, SimulationError
from repro.sim.stats import Stats
from repro.system import PHASES, CmpSystem, Phase, new_run_state, run_phases

#: Barriers must land on every phase's ``run_until`` check boundaries,
#: so the window divides all of the script's check cadences.
_BASE_INTERVAL = math.gcd(*(phase.check_interval
                            for phase in PHASES.values()))

#: Floor (seconds) on the first receive from a new fleet: each worker
#: builds and prewarms a full system before its first barrier.
_START_RECV_FLOOR = 120.0

#: What the coordinator tells a worker it no longer needs; read in place
#: of the next barrier reply.
_ABORT = ("abort", "coordinator shutting down")


def shard_window(link_latency: int) -> int:
    """Barrier window width for a given boundary-link latency.

    The safe lookahead is ``link_latency + 1`` cycles (send at ``t`` ->
    due ``t + 1 + latency``).  The window must also divide every phase's
    check interval so barriers land exactly on ``run_until`` chunk
    boundaries; we take the largest such divisor not exceeding the
    lookahead.
    """
    for width in range(min(link_latency + 1, _BASE_INTERVAL), 0, -1):
        if _BASE_INTERVAL % width == 0:
            return width
    raise AssertionError("unreachable: 1 always qualifies")


def resolve_shards(config, override: Optional[int] = None) -> int:
    """Effective shard count, checked against the router-grid height."""
    shards = repro_config.resolve("shards", override=override)
    if shards > config.mesh_side:
        raise repro_config.ConfigError(
            "shards", "shards= / REPRO_SHARDS",
            f"{shards} shards exceed the router-grid height "
            f"{config.mesh_side} (shards are horizontal row bands of "
            ">= 1 row)"
        )
    return shards


def resolve_shard_timeout(override: Optional[float] = None) -> float:
    """Seconds the coordinator waits on a silent worker before declaring
    it dead.  The default is generous: a worker only goes silent
    mid-window, and windows are a handful of simulated cycles."""
    return repro_config.resolve("shard_timeout", override=override)


class ShardWorkerDied(SimulationError):
    """A worker process died or went silent past the receive timeout.

    Recoverable: the supervisor reruns the whole sharded run.  Surfaces
    to the caller only once the run's respawn budget is exhausted
    (wrapped in :class:`ShardRecoveryError`).
    """

    def __init__(self, message: str, shard: Optional[int] = None) -> None:
        super().__init__(message)
        self.shard = shard


class ShardRecoveryError(SimulationError):
    """Recovery gave up: the run's respawn budget is exhausted."""

    def __init__(self, message: str, shard: Optional[int] = None) -> None:
        super().__init__(message)
        self.shard = shard


@record
class ShardResult:
    """Outcome of one sharded run (coordinator side)."""

    stats: Stats
    start_cycle: int
    finish_cycle: int
    end_cycle: int
    n_shards: int
    window: int
    wall_seconds: float
    coordinator_cpu_seconds: float
    worker_cpu_seconds: List[float] = field(default_factory=list)
    worker_cpu_seconds_measure: List[float] = field(default_factory=list)
    #: Reruns of the whole run after a worker died or went silent.
    respawns: int = 0

    @property
    def exec_cycles(self) -> int:
        return self.finish_cycle - self.start_cycle


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------

class _ShardAborted(SimulationError):
    """Coordinator told this worker to stop (another shard failed, or the
    run is being rerun)."""


class _ShardWorker:
    """One band of the mesh, simulated in this process."""

    def __init__(self, conn, parent_pid: int, params: dict, index: int,
                 chaos: Optional[dict] = None) -> None:
        self.conn = conn
        self.index = index
        self.window = params["window"]
        self._chaos = chaos
        self._parent_pid = parent_pid
        assignment = params["assignment"]
        local = frozenset(
            node for node, shard in enumerate(assignment) if shard == index
        )
        # Disjoint uid ranges per shard: uids are only compared for
        # equality (reassembly maps, circuit keys), never ordered, so the
        # offset cannot affect simulated behaviour.
        import repro.noc.flit as flit_mod

        flit_mod._msg_ids = itertools.count(index << 48)

        from repro.cpu.workloads import workload_by_name

        self.system = CmpSystem(
            params["config"],
            workload_by_name(params["workload"]),
            local_nodes=local,
        )
        self.net = self.system.network
        self.net.shard_flits_imported = 0
        self.net.shard_flits_exported = 0
        #: uid -> [canonical Message, flits seen] for in-flight imports.
        self._canon: Dict[int, list] = {}
        self._run_state = new_run_state(
            params["warmup_instructions"],
            params["measure_instructions"],
            max_measure_cycles=params["max_measure_cycles"],
        )
        self._seq = 0  # next barrier sequence number
        self.local_cores = [
            tile.core for tile in self.system.tiles
            if tile.core is not None and tile.node in local
        ]
        self.monitor = None
        if params["check"]:
            from repro.validate.invariants import InvariantMonitor

            self.monitor = InvariantMonitor(
                self.net, system=self.system,
                interval=params["check_interval"], local_nodes=local,
            ).attach(self.system.sim)

        # Calendar key -> shard of the router it delivers to; NI keys
        # (after every router's) are local: only the NI's router sends
        # to them.
        from repro.partition import router_shard

        topo = self.net.topo
        stride = self.net.core.stride
        self._key_shard: List[int] = [
            router_shard(topo, assignment, key // stride)
            for key in range(topo.n_routers * stride)
        ] + [index] * topo.n_nodes

    # -- boundary transfer ---------------------------------------------
    def _harvest(self) -> Tuple[Dict[int, bytes], int]:
        """Move every calendar entry bound for a foreign router into
        per-shard pickles of ``(is_flit, due, key, item)``, in calendar
        order.  Returns ``(blobs by destination shard, flits exported)``.
        """
        per_dest: Dict[int, list] = {}
        exported = 0
        core = self.net.core
        key_shard = self._key_shard
        for is_flit, calendar in ((True, core.flits), (False, core.credits)):
            for due in sorted(calendar):
                bucket = calendar[due]
                local = []
                for key, item in bucket:
                    dest = key_shard[key]
                    if dest == self.index:
                        local.append((key, item))
                        continue
                    if is_flit:
                        exported += 1
                        # The circuit_resolved hook is a protocol-layer
                        # callback that fires exactly once at origin-NI
                        # injection - strictly before the message's
                        # flits exist on any wire - so it is always spent
                        # by the time a flit crosses a shard boundary.
                        payload = item.msg.payload
                        if payload is not None and getattr(
                                payload, "circuit_resolved", None) is not None:
                            payload.circuit_resolved = None
                    per_dest.setdefault(dest, []).append(
                        (is_flit, due, key, item))
                if len(local) < len(bucket):
                    if local:
                        calendar[due] = local
                    else:
                        del calendar[due]
        if exported:
            self.net.shard_flits_exported += exported
        blobs = {
            dest: pickle.dumps(entries, pickle.HIGHEST_PROTOCOL)
            for dest, entries in per_dest.items()
        }
        return blobs, exported

    def _apply(self, blobs: List[bytes]) -> None:
        """File transferred entries in the local calendar (each key has a
        single sender, so appending keeps every channel first in first
        out) and wake the router core for them."""
        canon = self._canon
        imported = 0
        core = self.net.core
        for blob in blobs:
            for is_flit, due, key, item in pickle.loads(blob):
                if is_flit:
                    imported += 1
                    msg = item.msg
                    entry = canon.get(msg.uid)
                    if entry is None:
                        if msg.n_flits > 1:
                            canon[msg.uid] = [msg, 1]
                    else:
                        item.msg = entry[0]
                        entry[1] += 1
                        if entry[1] >= entry[0].n_flits:
                            del canon[msg.uid]
                post(core.flits if is_flit else core.credits, due,
                     (key, item))
                if core.kernel_wake is not None:
                    core.kernel_wake(due)
        if imported:
            self.net.shard_flits_imported += imported

    def _barrier(self, flag_fn=None, wd: int = 0) -> Optional[bool]:
        """Exchange boundary traffic with every other shard.

        ``flag_fn(exported)`` - evaluated after the harvest, before the
        imports are applied - supplies this shard's vote for the global
        AND-reduced done/idle flag; the coordinator's reply carries the
        reduction (None on flagless barriers).
        """
        seq = self._seq
        self._seq = seq + 1
        blobs, exported = self._harvest()
        flag = None if flag_fn is None else flag_fn(exported)
        self._chaos_hook(seq)
        self.conn.send((
            "b", seq, self.system.sim.cycle, blobs, flag,
            self.system._progress() if wd else 0, wd,
        ))
        reply = recv_or_exit(self.conn, self._parent_pid)
        if reply[0] == "abort":
            raise _ShardAborted(reply[1])
        _kind, inbound, global_flag = reply
        self._apply(inbound)
        return global_flag

    def _chaos_hook(self, seq: int) -> None:
        """Fault injection for the chaos campaign (first attempt only: a
        rerun spawns its workers without it)."""
        chaos = self._chaos
        if chaos is None or chaos.get("shard") != self.index \
                or seq < chaos.get("barrier_seq", 0):
            return
        import signal

        self._chaos = None  # disarm first: SIGSTOP may be resumed later
        action = chaos.get("action")
        if action == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif action == "sigstop":
            os.kill(os.getpid(), signal.SIGSTOP)
        else:  # pragma: no cover - campaign misconfiguration
            raise ValueError(f"unknown chaos action {action!r}")

    # -- run control: this engine's half of repro.system.run_phases -----
    def _run_phase(self, phase: Phase, run_state: dict) -> None:
        """Global ``run_until``: advance in windows, AND-reduce the vote.

        Flags are exchanged at exactly the cycles a single-process
        ``run_until(done, max_cycles, check_interval)`` would evaluate
        ``done()`` - on entry and after every chunk - so completion
        cycles are bit-identical.
        """
        system = self.system
        sim = system.sim
        window = self.window
        ci = run_state["ci"]
        # The phase's stall window rides on every barrier (0 = unwatched)
        # for the coordinator's global progress watchdog.
        wd = phase.watchdog
        deadline = run_state["deadline"]
        anchor = run_state["anchor"]
        cores = self.local_cores

        def vote(exported: int) -> bool:
            # Flits harvested this very barrier are in transit between
            # processes and invisible to both censuses; the sender (us)
            # vetoes idleness for them.  A single process would have
            # counted them on the boundary link via in_flight().
            if exported and phase.until_idle:
                return False
            return system.phase_done(phase, cores)

        if self._barrier(vote, wd):
            return
        while sim.cycle < deadline:
            chunk = min(sim.cycle + ci, deadline)
            while True:
                sim._advance(min(sim.cycle + window, chunk))
                if sim.cycle >= chunk:
                    break
                self._barrier(None, wd)
            if self._barrier(vote, wd):
                return
        raise DeadlockError(
            f"simulation did not complete within {deadline - anchor} cycles",
            cycle=sim.cycle,
        )

    def _at_measure(self) -> None:
        """Measurement starts: the transfer counters restart with the
        statistics they are balanced against."""
        self.net.shard_flits_imported = 0
        self.net.shard_flits_exported = 0
        self._cpu_measure = time.process_time()

    def run(self) -> dict:
        system = self.system
        cpu_start = self._cpu_measure = time.process_time()
        start, finish = run_phases(system, self._run_state, self._run_phase,
                                   self.local_cores, self._at_measure)
        cpu_end = time.process_time()
        return {
            "stats": system.stats.snapshot(),
            "start": start,
            "finish": finish,
            "end_cycle": system.sim.cycle,
            "cpu_seconds": cpu_end - cpu_start,
            "cpu_seconds_measure": cpu_end - self._cpu_measure,
            "ticks_run": system.sim.ticks_run,
        }


def _shard_worker_main(conn, parent_pid: int, params: dict, index: int,
                       chaos: Optional[dict] = None) -> None:
    try:
        result = _ShardWorker(conn, parent_pid, params, index, chaos).run()
        conn.send(("done", result))
    except _ShardAborted:
        pass  # the coordinator already knows why
    except BaseException as error:  # marshal across the process boundary
        try:
            conn.send(("error", type(error).__name__, str(error)))
        except Exception:
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side.
# ----------------------------------------------------------------------

def _recv(conn, proc, index: int, timeout: float):
    """Receive one message from worker ``index`` or raise ShardWorkerDied."""
    if not conn.poll(timeout):
        if proc.is_alive():
            raise ShardWorkerDied(
                f"shard worker {index} unresponsive for {timeout:.0f}s",
                shard=index,
            )
        raise ShardWorkerDied(
            f"shard worker {index} died (exit code {proc.exitcode})",
            shard=index,
        )
    try:
        return conn.recv()
    except EOFError:
        proc.join(timeout=5)
        raise ShardWorkerDied(
            f"shard worker {index} died (exit code {proc.exitcode})",
            shard=index,
        ) from None


def _reraise_worker_error(index: int, kind: str, message: str):
    from repro.validate.invariants import InvariantViolation

    prefix = f"shard {index}: "
    if kind == "DeadlockError":
        raise DeadlockError(prefix + message)
    if kind == "InvariantViolation":
        raise InvariantViolation("shard", prefix + message)
    raise SimulationError(f"{prefix}[{kind}] {message}")


class _Supervisor:
    """Spawns and watches the shard worker fleet; reruns it when a
    worker dies."""

    def __init__(self, params: dict, n_shards: int, timeout: float,
                 respawn_limit: int, chaos: Optional[dict]) -> None:
        self.params = params
        self.n_shards = n_shards
        self.timeout = timeout
        self.respawn_limit = respawn_limit
        self.chaos = chaos
        self.fleet: List[tuple] = []  # (process, conn) per shard
        self.respawns = 0
        self._first_round = True

    def spawn_all(self) -> None:
        self.fleet = [
            spawn(_shard_worker_main, (self.params, index, self.chaos),
                  f"repro-shard-{index}")
            for index in range(self.n_shards)
        ]
        self._first_round = True

    def rerun(self, cause: ShardWorkerDied) -> None:
        """Reap every worker and start the run again from scratch, with
        the chaos hook disarmed."""
        if self.respawns >= self.respawn_limit:
            raise ShardRecoveryError(
                f"shard {cause.shard} failed and the run's respawn budget "
                f"({self.respawn_limit}) is exhausted: {cause}",
                shard=cause.shard,
            ) from cause
        self.respawns += 1
        # Dead already, or wedged (SIGSTOP ignores SIGTERM): a short ladder.
        reap(self.fleet, _ABORT, grace=1.0)
        self.chaos = None
        self.spawn_all()

    def recv_round(self) -> List:
        """Collect one lockstep round, one message per shard."""
        timeout = self.timeout
        if self._first_round:
            timeout = max(timeout, _START_RECV_FLOOR)
        messages = [_recv(conn, proc, index, timeout)
                    for index, (proc, conn) in enumerate(self.fleet)]
        self._first_round = False
        return messages

    def send(self, index: int, reply) -> None:
        proc, conn = self.fleet[index]
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            raise ShardWorkerDied(
                f"shard worker {index} died (exit code {proc.exitcode})",
                shard=index,
            ) from None

    def shutdown(self) -> None:
        """Workers still at a barrier read the abort as their reply."""
        reap(self.fleet, _ABORT)


def _coordinate(supervisor: _Supervisor, n_shards: int) -> List[dict]:
    """Drive one attempt of the run to its end; returns each worker's
    result dict, by shard index."""
    watchdog_last: Optional[Tuple[int, int]] = None  # (value, cycle)
    while True:
        messages = supervisor.recv_round()
        failed = next(
            (i for i, msg in enumerate(messages) if msg[0] == "error"),
            None,
        )
        if failed is not None:
            _kind, err_kind, err_message = messages[failed]
            _reraise_worker_error(failed, err_kind, err_message)
        if all(msg[0] == "done" for msg in messages):
            return [msg[1] for msg in messages]
        # A barrier round: every worker runs the same deterministic
        # phase script, so mixed barrier/done rounds cannot happen.
        assert all(msg[0] == "b" for msg in messages), messages
        seq = messages[0][1]
        cycle = messages[0][2]
        assert all(msg[1] == seq and msg[2] == cycle
                   for msg in messages), (
            "shards desynchronised: "
            + str([(m[1], m[2]) for m in messages])
        )
        # Route boundary blobs untouched (bytes pass through; only the
        # destination worker unpickles).  Sender order is shard index
        # order, so application order is deterministic.
        inbound: List[List[bytes]] = [[] for _ in range(n_shards)]
        for msg in messages:
            for dest, blob in msg[3].items():
                inbound[dest].append(blob)
        flags = [msg[4] for msg in messages]
        if any(flag is None for flag in flags):
            global_flag = None
        else:
            global_flag = all(flags)
        # Global deadlock watchdog, active while every shard runs a
        # watched phase (the coordinator-level ProgressWatchdog; its
        # window is the phase's, carried by the barriers).  Window and
        # chunk barriers both report progress during those phases, so
        # the stall clock accumulates across rounds; only drain rounds
        # (wd=0) pause it.
        stall_window = messages[0][6]
        if all(msg[6] for msg in messages):
            progress = sum(msg[5] for msg in messages)
            if watchdog_last is None or progress != watchdog_last[0]:
                watchdog_last = (progress, cycle)
            elif cycle - watchdog_last[1] >= stall_window:
                raise DeadlockError(
                    f"no progress across {n_shards} shards for "
                    f"{stall_window} cycles (cycle {cycle}, last "
                    f"progress at cycle {watchdog_last[1]})",
                    cycle=cycle,
                    last_progress_cycle=watchdog_last[1],
                )
        else:
            watchdog_last = None
        for index in range(n_shards):
            supervisor.send(index, ("b", inbound[index], global_flag))


def run_sharded(config, workload: str, warmup_instructions: int,
                measure_instructions: int, n_shards: Optional[int] = None,
                check: Optional[bool] = None,
                check_interval: int = 2000,
                _max_measure_cycles: Optional[int] = None,
                timeout: Optional[float] = None,
                respawn_limit: Optional[int] = None,
                _chaos: Optional[dict] = None) -> ShardResult:
    """Execute one CMP run split across ``n_shards`` worker processes.

    Bit-identical (stats, finish cycle) to building the same system in
    one process and running warmup + measurement there.  ``check``
    attaches a shard-aware :class:`InvariantMonitor` in every worker
    (default: the ``REPRO_CHECK`` setting, matching ``run_experiment``).

    A worker that dies or goes silent past ``timeout`` seconds costs a
    rerun: every worker is reaped and the run starts again from scratch,
    at most ``respawn_limit`` times per run, after which
    :class:`ShardRecoveryError` is raised.  A rerun stays bit-identical.
    """
    from repro.noc.topology import build_topology
    from repro.partition import shard_assignment

    n_shards = resolve_shards(config, n_shards)
    topo = build_topology(config)
    assignment = shard_assignment(topo, n_shards)
    check = repro_config.resolve("check", override=check)
    timeout = resolve_shard_timeout(timeout)
    respawn_limit = repro_config.resolve("shard_respawns",
                                         override=respawn_limit)
    params = {
        "config": config,
        "workload": workload,
        "warmup_instructions": warmup_instructions,
        "measure_instructions": measure_instructions,
        "assignment": assignment,
        "window": shard_window(config.noc.link_latency),
        "check": check,
        "check_interval": check_interval,
        "max_measure_cycles": _max_measure_cycles,
    }

    supervisor = _Supervisor(params, n_shards, timeout, respawn_limit, _chaos)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        supervisor.spawn_all()
        while True:
            try:
                done = _coordinate(supervisor, n_shards)
                break
            except ShardWorkerDied as cause:
                supervisor.rerun(cause)
    finally:
        supervisor.shutdown()

    wall = time.perf_counter() - wall_start
    coordinator_cpu = time.process_time() - cpu_start
    starts = {result["start"] for result in done}
    assert len(starts) == 1, f"shards disagree on the start cycle: {starts}"
    ends = {result["end_cycle"] for result in done}
    assert len(ends) == 1, f"shards disagree on the end cycle: {ends}"
    merged = Stats()
    for result in done:  # ascending shard index: deterministic merge
        merged.merge(Stats.from_snapshot(result["stats"]))
    return ShardResult(
        stats=merged,
        start_cycle=starts.pop(),
        finish_cycle=max(result["finish"] for result in done),
        end_cycle=ends.pop(),
        n_shards=n_shards,
        window=params["window"],
        wall_seconds=wall,
        coordinator_cpu_seconds=coordinator_cpu,
        worker_cpu_seconds=[result["cpu_seconds"] for result in done],
        worker_cpu_seconds_measure=[
            result["cpu_seconds_measure"] for result in done
        ],
        respawns=supervisor.respawns,
    )
