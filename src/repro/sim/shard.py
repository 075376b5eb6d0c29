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

Self-healing supervision (``repro.sim.checkpoint`` underneath): barriers
are numbered by a monotonic *sequence* (cycles alone are ambiguous -
phase transitions stack several barriers on one cycle).  Each worker
periodically snapshots its full replica at a barrier, *after* applying
that barrier's reply, and reports the snapshot's seq back; the
coordinator keeps, per shard, a replay log of every barrier reply since
the last acknowledged snapshot.  When a worker dies or goes silent past
the receive timeout, the coordinator respawns the shard from its last
snapshot (or from scratch, before the first one) and feeds it the
logged replies: the replacement replays *silently* - outbound traffic
it re-harvests was already delivered, so it is discarded - until the
log runs dry, at which point it is exactly at the barrier the others
are waiting on and rejoins live.  Replay is deterministic, so the
recovered run stays bit-identical.  Respawns are bounded; anything a
worker reports *deterministically* (deadlock, invariant violation,
corrupt snapshot) is not retried - only process death/unresponsiveness
is.  Workers keep their two newest snapshots on disk: all workers
snapshot at identical barrier seqs (the rule depends only on global
quantities), so after a *coordinator* death the newest seq present in
every shard is a consistent global cut, and ``run_sharded(...,
resume=True)`` restarts the whole run from it with empty replay logs.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import re
import shutil
import tempfile
import time
from dataclasses import field
from typing import Dict, List, Optional, Tuple

from repro import config as repro_config
from repro._record import record
from repro.noc.router import post
from repro.proc import reap, recv_or_exit, spawn
from repro.sim.checkpoint import (
    CheckpointError,
    capture_system,
    fingerprint,
    read_checkpoint,
    restore_system,
    write_checkpoint,
)
from repro.sim.kernel import DeadlockError, SimulationError
from repro.sim.stats import Stats
from repro.system import PHASES, CmpSystem, Phase, new_run_state, run_phases

#: Barriers must land on every phase's ``run_until`` check boundaries,
#: so the window divides all of the script's check cadences.
_BASE_INTERVAL = math.gcd(*(phase.check_interval
                            for phase in PHASES.values()))

#: Recovery-snapshot cadence (simulated cycles) when the caller passes
#: no ``checkpoint_interval``.
_DEFAULT_SNAPSHOT_INTERVAL = 50_000

#: Snapshots each worker retains on disk.  Two is exactly enough for the
#: coordinator-death consistent cut: workers write a given seq at most
#: one lockstep round apart, so every worker always still holds the
#: previous common seq while the newest one spreads.
_SNAPSHOTS_KEPT = 2

#: Floor (seconds) on the first receive after a respawn: the replacement
#: must rebuild or restore a full system and replay before it can speak.
_RESPAWN_RECV_FLOOR = 120.0

#: What the coordinator tells a worker it no longer needs; read in place
#: of the next barrier reply.
_ABORT = ("abort", "coordinator shutting down")

_SNAPSHOT_RE = re.compile(r"^shard(\d+)-seq(\d{8})\.ckpt$")


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

    Recoverable: the supervisor respawns the shard from its last
    snapshot.  Surfaces to the caller only once the respawn budget is
    exhausted (wrapped in :class:`ShardRecoveryError`).
    """

    def __init__(self, message: str, shard: Optional[int] = None) -> None:
        super().__init__(message)
        self.shard = shard


class ShardRecoveryError(SimulationError):
    """Self-healing gave up: respawn budget exhausted or no usable cut."""

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
    #: Worker processes respawned by the self-healing supervisor.
    respawns: int = 0

    @property
    def exec_cycles(self) -> int:
        return self.finish_cycle - self.start_cycle


def _snapshot_path(directory: str, index: int, seq: int) -> str:
    return os.path.join(directory, f"shard{index}-seq{seq:08d}.ckpt")


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------

class _ShardAborted(SimulationError):
    """Coordinator told this worker to stop (another shard failed)."""


class _ShardWorker:
    """One band of the mesh, simulated in this process."""

    def __init__(self, conn, parent_pid: int, params: dict, index: int,
                 snapshot_path: Optional[str] = None,
                 replay: Optional[list] = None,
                 chaos: Optional[dict] = None) -> None:
        """A fresh worker, or one rebuilt from ``snapshot_path`` (respawn /
        coordinator resume): the two differ only in where the system,
        the script position and the reassembly table come from."""
        self.conn = conn
        self.index = index
        self.params = params
        self.window = params["window"]
        self._chaos = chaos
        self._replay = list(replay or [])
        self._parent_pid = parent_pid
        assignment = params["assignment"]
        local = frozenset(
            node for node, shard in enumerate(assignment) if shard == index
        )
        if snapshot_path is None:
            # Disjoint uid ranges per shard: uids are only compared for
            # equality (reassembly maps, circuit keys), never ordered, so
            # the offset cannot affect simulated behaviour.
            import repro.noc.flit as flit_mod

            flit_mod._msg_ids = itertools.count(index << 48)

            from repro.cpu.workloads import workload_by_name

            self.system = CmpSystem(
                params["config"],
                workload_by_name(params["workload"]),
                local_nodes=local,
            )
            self.system.network.shard_flits_imported = 0
            self.system.network.shard_flits_exported = 0
            #: uid -> [canonical Message, flits seen] for in-flight imports.
            self._canon: Dict[int, list] = {}
            #: Script position; snapshotted alongside the system so a
            #: respawned replacement re-enters the interrupted phase
            #: exactly.  ``next_seq`` numbers the next barrier.
            self._run_state = new_run_state(
                params["warmup_instructions"],
                params["measure_instructions"],
                max_measure_cycles=params["max_measure_cycles"],
            )
            self._run_state["next_seq"] = 0
        else:
            _header, payload = read_checkpoint(
                snapshot_path, kind="shard",
                config_hash=params["config_hash"]
            )
            data = restore_system(payload)  # also reinstalls flit uid stream
            self.system = data["system"]
            self._canon = data["canon"]
            self._run_state = data["run"]
        self.net = self.system.network
        self._seq = self._run_state["next_seq"]  # next barrier sequence number
        self._snap_seq = self._seq  # seq of the last durable snapshot (0 = none)
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

        # Recovery-snapshot schedule: a pure function of the (global)
        # barrier cycle, so every shard snapshots at identical barrier
        # seqs and any snapshot seq is a consistent global cut.
        self._snap_dir = params["snapshot_dir"]
        self._snap_interval = params["snapshot_interval"]
        cycle = self.system.sim.cycle
        self._next_snap_cycle = (cycle // self._snap_interval + 1) \
            * self._snap_interval

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

        In *replay* mode (after a respawn) nothing touches the wire:
        harvested blobs are discarded - the original incarnation already
        delivered them - and the reply comes from the coordinator's log.
        Snapshots are still written at the deterministic points so the
        replacement's disk state converges with the other shards'.
        """
        seq = self._seq
        self._seq = seq + 1
        blobs, exported = self._harvest()
        flag = None if flag_fn is None else flag_fn(exported)
        if self._replay:
            inbound, global_flag = self._replay.pop(0)
            self._apply(inbound)
            if global_flag is not True:
                self._maybe_snapshot(seq + 1)
            return global_flag
        self._chaos_hook(seq)
        self.conn.send((
            "b", seq, self.system.sim.cycle, blobs, flag,
            self.system._progress() if wd else 0, wd, self._snap_seq,
        ))
        reply = recv_or_exit(self.conn, self._parent_pid)
        if reply[0] == "abort":
            raise _ShardAborted(reply[1])
        _kind, inbound, global_flag = reply
        self._apply(inbound)
        # Phase-ending barriers (global flag True) are never snapshot
        # points: run control stacks several barriers on that cycle and
        # the resume position would be ambiguous.
        if global_flag is not True:
            self._maybe_snapshot(seq + 1)
        return global_flag

    def _chaos_hook(self, seq: int) -> None:
        """Fault injection for the chaos campaign (first spawn only)."""
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

    # -- recovery snapshots --------------------------------------------
    def _maybe_snapshot(self, next_seq: int) -> None:
        """Snapshot the replica if the barrier cycle crossed the cadence."""
        cycle = self.system.sim.cycle
        if cycle < self._next_snap_cycle:
            return
        self._next_snap_cycle = (cycle // self._snap_interval + 1) \
            * self._snap_interval
        run_state = dict(self._run_state)
        run_state["cycle"] = cycle
        run_state["next_seq"] = next_seq
        payload = capture_system(self.system, run_state, canon=self._canon)
        path = _snapshot_path(self._snap_dir, self.index, next_seq)
        write_checkpoint(path, payload, kind="shard",
                         config_hash=self.params["config_hash"], cycle=cycle)
        self._snap_seq = next_seq
        self._prune_snapshots()

    def _prune_snapshots(self) -> None:
        mine = []
        try:
            names = os.listdir(self._snap_dir)
        except OSError:  # pragma: no cover - directory vanished
            return
        for name in names:
            match = _SNAPSHOT_RE.match(name)
            if match and int(match.group(1)) == self.index:
                mine.append((int(match.group(2)), name))
        mine.sort(reverse=True)
        for _seq, name in mine[_SNAPSHOTS_KEPT:]:
            try:
                os.unlink(os.path.join(self._snap_dir, name))
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    # -- run control: this engine's half of repro.system.run_phases -----
    def _run_phase(self, phase: Phase, run_state: dict,
                   resumed: bool = False) -> None:
        """Global ``run_until``: advance in windows, AND-reduce the vote.

        Flags are exchanged at exactly the cycles a single-process
        ``run_until(done, max_cycles, check_interval)`` would evaluate
        ``done()`` - on entry and after every chunk - so completion
        cycles are bit-identical.

        ``resumed`` re-enters mid-phase after a snapshot restore.  The
        snapshot was taken at a barrier whose reply was already applied,
        so the position is unambiguous: on a chunk boundary (offset 0
        from the anchor) the next step is the outer loop; mid-chunk, the
        partial chunk is finished first - with the original clamped end,
        so the remaining barrier schedule is identical.
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

        if resumed:
            offset = (sim.cycle - anchor) % ci
            if offset:
                chunk = min(sim.cycle + (ci - offset), deadline)
                while True:
                    sim._advance(min(sim.cycle + window, chunk))
                    if sim.cycle >= chunk:
                        break
                    self._barrier(None, wd)
                if self._barrier(vote, wd):
                    return
        elif self._barrier(vote, wd):
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
                       restore: Optional[tuple] = None,
                       chaos: Optional[dict] = None) -> None:
    try:
        snapshot_path, replay = restore or (None, None)
        worker = _ShardWorker(conn, parent_pid, params, index,
                              snapshot_path, replay, chaos)
        result = worker.run()
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
    from repro.sim import checkpoint as ckpt
    from repro.validate.invariants import InvariantViolation

    prefix = f"shard {index}: "
    if kind == "DeadlockError":
        raise DeadlockError(prefix + message)
    if kind == "InvariantViolation":
        raise InvariantViolation("shard", prefix + message)
    for name in ("CorruptCheckpointError", "IncompatibleCheckpointError",
                 "UnpicklableStateError", "CheckpointError"):
        if kind == name:
            raise getattr(ckpt, name)(prefix + message)
    raise SimulationError(f"{prefix}[{kind}] {message}")


class _Supervisor:
    """Spawns, watches, and respawns the shard worker fleet."""

    def __init__(self, params: dict, n_shards: int, timeout: float,
                 respawn_limit: int, chaos: Optional[dict]) -> None:
        self.params = params
        self.n_shards = n_shards
        self.timeout = timeout
        self.respawn_limit = respawn_limit
        self.chaos = chaos
        self.conns: List = [None] * n_shards
        self.procs: List = [None] * n_shards
        self.spawned: List = []  # every (process, conn) ever, for reaping
        #: Per shard: barrier replies sent since its acked snapshot,
        #: as (seq, (inbound blobs, global flag)).
        self.logs: List[List[tuple]] = [[] for _ in range(n_shards)]
        #: Per shard: seq of its last durable snapshot (0 = none).
        self.snap_seq: List[int] = [0] * n_shards
        self.respawns = 0
        self._respawns_by_shard: List[int] = [0] * n_shards
        self._fresh: List[bool] = [True] * n_shards  # grace on first recv

    def spawn(self, index: int, restore: Optional[tuple] = None,
              chaos: Optional[dict] = None) -> None:
        child = spawn(_shard_worker_main,
                      (self.params, index, restore, chaos),
                      f"repro-shard-{index}")
        self.procs[index], self.conns[index] = child
        self.spawned.append(child)
        self._fresh[index] = True

    def spawn_all(self, resume_seq: Optional[int] = None) -> None:
        for index in range(self.n_shards):
            restore = None
            if resume_seq is not None:
                restore = (_snapshot_path(self.params["snapshot_dir"],
                                          index, resume_seq), [])
                self.snap_seq[index] = resume_seq
            self.spawn(index, restore=restore, chaos=self.chaos)

    def recover(self, index: int, cause: ShardWorkerDied) -> None:
        """Respawn shard ``index`` from its snapshot + replay log."""
        if self._respawns_by_shard[index] >= self.respawn_limit:
            raise ShardRecoveryError(
                f"shard {index} failed and its respawn budget "
                f"({self.respawn_limit}) is exhausted: {cause}",
                shard=index,
            ) from cause
        self.respawns += 1
        self._respawns_by_shard[index] += 1
        # Dead already, or wedged (SIGSTOP ignores SIGTERM): a short ladder.
        reap([(self.procs[index], self.conns[index])], _ABORT, grace=1.0)
        snap = self.snap_seq[index]
        path = _snapshot_path(self.params["snapshot_dir"], index, snap) \
            if snap else None
        replay = [reply for seq, reply in self.logs[index] if seq >= snap]
        self.spawn(index, restore=(path, replay))

    def recv_round(self) -> List:
        """Collect one lockstep round, respawning shards that fail.

        A replacement replays silently and then emits exactly the
        message its predecessor owed this round, so already-received
        messages from healthy shards stay valid.
        """
        messages: List = [None] * self.n_shards
        pending = list(range(self.n_shards))
        while pending:
            index = pending[0]
            timeout = self.timeout
            if self._fresh[index]:
                timeout = max(timeout, _RESPAWN_RECV_FLOOR)
            try:
                messages[index] = _recv(self.conns[index], self.procs[index],
                                        index, timeout)
                self._fresh[index] = False
                pending.pop(0)
            except ShardWorkerDied as cause:
                self.recover(index, cause)  # retry this index next pass
        return messages

    def send(self, index: int, reply) -> None:
        """Send a reply; a send-side death is recovered like a recv one.

        The reply was logged before any send, so the replacement replays
        it from the log and needs no retransmission.
        """
        try:
            self.conns[index].send(reply)
        except (BrokenPipeError, OSError):
            self.recover(index, ShardWorkerDied(
                f"shard worker {index} died "
                f"(exit code {self.procs[index].exitcode})", shard=index,
            ))

    def ack_snapshots(self, messages: List) -> None:
        """Prune replay logs up to each worker's durable snapshot."""
        for index, msg in enumerate(messages):
            acked = msg[7]
            if acked > self.snap_seq[index]:
                self.snap_seq[index] = acked
                self.logs[index] = [
                    entry for entry in self.logs[index] if entry[0] >= acked
                ]

    def shutdown(self) -> None:
        """Workers still at a barrier read the abort as their reply."""
        reap(self.spawned, _ABORT)


def _find_resume_seq(directory: str, n_shards: int) -> int:
    """Newest snapshot seq present - and readable - in every shard.

    All shards snapshot at identical barrier seqs (the cadence depends
    only on the global barrier cycle), so any common seq is a consistent
    global cut; each worker retains its two newest, which always overlap
    across shards by at least one seq unless files were lost.
    """
    try:
        names = os.listdir(directory)
    except OSError as exc:
        raise ShardRecoveryError(
            f"cannot resume: checkpoint directory {directory} is "
            f"unreadable ({exc})"
        ) from exc
    per_shard: List[set] = [set() for _ in range(n_shards)]
    for name in names:
        match = _SNAPSHOT_RE.match(name)
        if match:
            index = int(match.group(1))
            if index < n_shards:
                per_shard[index].add(int(match.group(2)))
    missing = [i for i, seqs in enumerate(per_shard) if not seqs]
    if missing:
        raise ShardRecoveryError(
            f"cannot resume from {directory}: no snapshots for "
            f"shard(s) {missing} (need one per shard for a consistent cut)"
        )
    common = set.intersection(*per_shard)
    if not common:
        raise ShardRecoveryError(
            f"cannot resume from {directory}: shards share no common "
            f"snapshot seq (per shard: "
            f"{[sorted(s) for s in per_shard]})"
        )
    for seq in sorted(common, reverse=True):
        try:
            for index in range(n_shards):
                read_checkpoint(_snapshot_path(directory, index, seq),
                                kind="shard")
        except CheckpointError:
            continue  # torn by a mid-write crash; fall back one cut
        return seq
    raise ShardRecoveryError(
        f"cannot resume from {directory}: every common snapshot seq "
        f"{sorted(common)} has at least one unreadable file"
    )


def _cleanup_snapshots(directory: str) -> None:
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        if _SNAPSHOT_RE.match(name):
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
    try:
        os.rmdir(directory)
    except OSError:
        pass  # foreign files or shared directory: leave it


def _snapshot_interval(checkpoint_interval: Optional[int]) -> int:
    """``checkpoint_interval``, checked, or the default cadence."""
    if checkpoint_interval is None:
        return _DEFAULT_SNAPSHOT_INTERVAL
    if isinstance(checkpoint_interval, bool) \
            or not isinstance(checkpoint_interval, int) \
            or checkpoint_interval < 1:
        source = "checkpoint_interval= (keyword)"
        raise repro_config.ConfigError(
            "checkpoint_interval", source,
            f"{source} must be an integer >= 1 (simulated cycles between "
            f"shard snapshots), got {checkpoint_interval!r}")
    return checkpoint_interval


def run_sharded(config, workload: str, warmup_instructions: int,
                measure_instructions: int, n_shards: Optional[int] = None,
                check: Optional[bool] = None,
                check_interval: int = 2000,
                _max_measure_cycles: Optional[int] = None,
                checkpoint_dir: Optional[str] = None,
                checkpoint_interval: Optional[int] = None,
                resume: bool = False,
                timeout: Optional[float] = None,
                respawn_limit: Optional[int] = None,
                _chaos: Optional[dict] = None) -> ShardResult:
    """Execute one CMP run split across ``n_shards`` worker processes.

    Bit-identical (stats, finish cycle) to building the same system in
    one process and running warmup + measurement there.  ``check``
    attaches a shard-aware :class:`InvariantMonitor` in every worker
    (default: the ``REPRO_CHECK`` setting, matching ``run_experiment``).

    Self-healing is always on: workers snapshot to ``checkpoint_dir``
    (a private temporary directory when not given) every
    ``checkpoint_interval`` simulated cycles (default 50 000; set by
    API only, no setting reads it), and a worker that dies or
    goes silent past ``timeout`` seconds is respawned from its snapshot
    and the coordinator's replay log - at most ``respawn_limit`` times
    per shard, after which :class:`ShardRecoveryError` is raised.
    ``resume=True`` restarts a run whose *coordinator* died from the
    newest snapshot seq common to all shards in ``checkpoint_dir``.
    Recovered and resumed runs stay bit-identical.
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
    snapshot_interval = _snapshot_interval(checkpoint_interval)
    owned_dir = checkpoint_dir is None
    if owned_dir:
        if resume:
            raise ValueError(
                "resume=True needs an explicit checkpoint_dir: a private "
                "temporary directory cannot outlive its coordinator"
            )
        checkpoint_dir = tempfile.mkdtemp(prefix="repro-shard-ckpt-")
    else:
        os.makedirs(checkpoint_dir, exist_ok=True)
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
        "snapshot_dir": checkpoint_dir,
        "snapshot_interval": snapshot_interval,
        "config_hash": fingerprint(config, workload, warmup_instructions,
                                   measure_instructions, n_shards),
    }

    supervisor = _Supervisor(params, n_shards, timeout, respawn_limit, _chaos)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        resume_seq = _find_resume_seq(checkpoint_dir, n_shards) \
            if resume else None
        supervisor.spawn_all(resume_seq=resume_seq)

        done: List[Optional[dict]] = [None] * n_shards
        watchdog_last: Optional[Tuple[int, int]] = None  # (value, cycle)
        while any(result is None for result in done):
            messages = supervisor.recv_round()
            failed = next(
                (i for i, msg in enumerate(messages) if msg[0] == "error"),
                None,
            )
            if failed is not None:
                _kind, err_kind, err_message = messages[failed]
                _reraise_worker_error(failed, err_kind, err_message)
            if all(msg[0] == "done" for msg in messages):
                for i, msg in enumerate(messages):
                    done[i] = msg[1]
                break
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
            supervisor.ack_snapshots(messages)
            # Route boundary blobs untouched (bytes pass through; only
            # the destination worker unpickles).  Sender order is shard
            # index order, so application order is deterministic.
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
            # window is the phase's, carried by the barriers).  Window
            # and chunk barriers both report progress during those
            # phases, so the stall clock accumulates across rounds; only
            # drain rounds (wd=0) pause it.
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
                reply = ("b", inbound[index], global_flag)
                # Log before send: if the worker dies mid-send, its
                # replacement replays this reply from the log.
                supervisor.logs[index].append((seq, (inbound[index],
                                                     global_flag)))
                supervisor.send(index, reply)
    finally:
        supervisor.shutdown()
        if owned_dir:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)

    if not owned_dir:
        _cleanup_snapshots(checkpoint_dir)  # success: recovery data is moot
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
