"""Full-chip assembly: cores + caches + directory + NoC on one clock.

This is the top of the substrate stack - the equivalent of the paper's
Simics/GEMS/Garnet tool chain.  :class:`CmpSystem` builds every tile
(core, private L1, shared L2 bank with directory slice, optional memory
controller, network interface) for a :class:`~repro.sim.config.SystemConfig`
and provides run/warmup/drain control for experiments.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from functools import partial
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro._record import record
from repro.config import ConfigError
from repro.coherence.l1 import L1Controller, L1Line
from repro.coherence.l2dir import DirLine, L2BankController
from repro.coherence.memory import MemoryController
from repro.coherence.messages import Kind, MessageFactory
from repro.cpu.core import Core
from repro.cpu.workloads import WorkloadProfile
from repro.noc.flit import Message
from repro.noc.network import Network
from repro.noc.topology import memory_controller_nodes
from repro.sim.config import SystemConfig
from repro.sim.kernel import ProgressWatchdog, SimulationError, Simulator
from repro.sim.rng import DeterministicRng
from repro.sim.stats import Stats

_L1_KINDS = frozenset({
    Kind.L2_REPLY, Kind.L1_TO_L1, Kind.L2_WB_ACK, Kind.INV,
    Kind.FWD_GETS, Kind.FWD_GETX,
})
_L2_KINDS = frozenset({
    Kind.GETS, Kind.GETX, Kind.WB_L1, Kind.L1_DATA_ACK, Kind.L1_INV_ACK,
    Kind.MEMORY_DATA, Kind.MEMORY_ACK,
})
_MC_KINDS = frozenset({Kind.MEM_READ, Kind.WB_L2})


# ----------------------------------------------------------------------
# The run script (paper sec. 5.1: warm the chip up, then measure), as
# data.  Both engines - one process, or sharded - walk these three rows
# through :func:`run_phases`.
# ----------------------------------------------------------------------

@record(frozen=True)
class Phase:
    """One row of the run script."""

    name: str
    #: Cycle budget; the phase raises ``DeadlockError`` once it is spent.
    deadline: int
    #: Cadence (cycles from the phase's anchor) of the end-of-phase check.
    check_interval: int
    #: Progress-stall window in cycles (0 = the phase is not watched).
    watchdog: int
    #: Ends when network and controllers are idle; otherwise when every
    #: core has retired its target.
    until_idle: bool = False


WARMUP = Phase("warmup", deadline=50_000_000, check_interval=64,
               watchdog=500_000)
DRAIN = Phase("drain", deadline=2_000_000, check_interval=16, watchdog=0,
              until_idle=True)
MEASURE = replace(WARMUP, name="measure")
PHASES = {phase.name: phase for phase in (WARMUP, DRAIN, MEASURE)}


def new_run_state(warmup_instructions: int,
                  measure_instructions: Optional[int],
                  max_warmup_cycles: Optional[int] = None,
                  max_measure_cycles: Optional[int] = None) -> dict:
    """Script position of a run that has not started.

    ``anchor``/``deadline``/``ci`` are filled in as phases are armed
    (:func:`arm_phase`).
    """
    return {
        "start": None,
        "warmup": warmup_instructions, "measure": measure_instructions,
        "max_warmup_cycles": max_warmup_cycles,
        "max_measure_cycles": max_measure_cycles,
    }


def arm_phase(system: "CmpSystem", run_state: dict, phase: Phase,
              cores: Sequence[Core] = (), target: int = 0,
              max_cycles: Optional[int] = None) -> dict:
    """Start ``phase`` at the current cycle: aim ``cores`` at ``target``
    more instructions and record anchor, absolute deadline (the table's
    budget unless ``max_cycles`` caps it) and check cadence."""
    for core in cores:
        core.set_target(target)
    cycle = system.sim.cycle
    run_state.update(anchor=cycle,
                     deadline=cycle + (max_cycles or phase.deadline),
                     ci=phase.check_interval)
    return run_state


def _require_measured(instructions: int, name: str,
                      cores: Sequence[Core]) -> None:
    """Refuse a measurement no core would finish - a target below one
    instruction, or no cores - as no core would then record the finish
    cycle a run returns."""
    if instructions < 1:
        raise ConfigError(name, f"{name}= (argument)",
                          f"{name} must be at least 1, got {instructions}: "
                          "no core would measure an instruction, so the "
                          "run would have no finish cycle")
    if not cores:
        raise ConfigError("workload", "build_system(workload=)",
                          "no core to measure an instruction (a system "
                          "built without a workload has none), so the run "
                          "would have no finish cycle")


def run_phases(system: "CmpSystem", run_state: dict,
               execute: Callable[[Phase, dict], None],
               cores: Sequence[Core],
               at_measure: Optional[Callable[[], None]] = None,
               ) -> Tuple[Optional[int], Optional[int]]:
    """Walk the script over a fresh ``run_state`` (:func:`new_run_state`):
    prewarm, warm-up, drain, stats reset, mark ``start``, measure.
    Returns ``(start, finish)`` cycles.

    ``execute(phase, run_state)`` is the one thing an engine supplies:
    how an armed phase runs to its end-of-phase predicate over ``cores``
    (the shard worker passes its local ones).
    ``at_measure`` runs once where measurement starts - after the stats
    reset, before the first measured cycle.  A ``measure`` target of
    None ends the script there (:meth:`CmpSystem.warmup`); one below 1,
    or no ``cores``, raises :class:`~repro.config.ConfigError` before
    anything runs.
    """
    if run_state["measure"] is not None:
        _require_measured(run_state["measure"], "measure_instructions",
                          cores)
    if run_state["warmup"]:
        prewarm(system)
        arm_phase(system, run_state, WARMUP, cores, run_state["warmup"],
                  run_state["max_warmup_cycles"])
        execute(WARMUP, run_state)
        arm_phase(system, run_state, DRAIN)
        execute(DRAIN, run_state)
        system.stats.reset()
    if run_state["measure"] is None:
        return None, None
    if at_measure is not None:
        at_measure()
    run_state["start"] = system.sim.cycle
    arm_phase(system, run_state, MEASURE, cores, run_state["measure"],
              run_state["max_measure_cycles"])
    execute(MEASURE, run_state)
    return run_state["start"], max(core.finish_cycle for core in cores)


#: The one prewarm image this process keeps: ``(key, image)`` of the
#: last functional prewarm :func:`prewarm` computed.
_prewarm_slot: Optional[tuple] = None


def prewarm_key(config: SystemConfig, workload: WorkloadProfile) -> tuple:
    """Everything a functional prewarm reads besides a system's own
    streams and home map: the cache geometry, the chip size and topology
    (for the default home map), the seed and the workload profile.  The
    one definition of what the prewarm depends on - ``CmpSystem`` keys
    the image slot with it, ``experiment.prewarm_group`` groups specs by
    it."""
    return (config.cache, config.n_cores, config.noc.topology, config.seed,
            workload)


def prewarm(system: "CmpSystem") -> None:
    """``system.functional_prewarm()``, computed once per program.

    The prewarm reads the cache geometry, chip size, topology, seed and
    workload - never the circuit variant - so systems that agree on those
    (:func:`prewarm_key`) are left in the same state.  The slot keeps
    the state the last computed prewarm left, as flat arrays and encoded
    lines that share no object with any system; a system with the same
    key restores it by copy.  Nothing else reads the ``prewarm`` RNG
    stream, so a restore need not draw it.  Systems with custom streams
    or a custom home map have no key and always compute.
    """
    global _prewarm_slot
    key = system.prewarm_key
    slot = _prewarm_slot
    if key is not None and slot is not None and slot[0] == key:
        system.restore_prewarm(slot[1])
        return
    system.functional_prewarm()
    if key is not None:
        _prewarm_slot = None  # the old image goes before the new is taken
        _prewarm_slot = (key, system.prewarm_image())


class Tile:
    """One node: router-attached NI plus the tile components."""

    __slots__ = ("node", "ni", "l1", "l2", "mc", "core")

    def __init__(self, node: int, ni, l1: L1Controller, l2: L2BankController,
                 mc: Optional[MemoryController], core: Optional[Core]) -> None:
        self.node = node
        self.ni = ni
        self.l1 = l1
        self.l2 = l2
        self.mc = mc
        self.core = core


class CmpSystem:
    """A complete simulated CMP executing a workload."""

    def __init__(self, config: SystemConfig,
                 workload: Optional[WorkloadProfile] = None,
                 streams: Optional[list] = None,
                 home_of: Optional[Callable[[int], int]] = None,
                 local_nodes: Optional[frozenset] = None) -> None:
        self.config = config
        #: Shard-local node set (None = whole chip).  The sharded engine
        #: builds the complete system in every worker (construction and
        #: functional prewarm must consume RNG streams identically), but
        #: registers only the local slice with the kernel: foreign tiles
        #: keep ``kernel_wake = None`` and never tick, so their NIs are
        #: never handed work and the router core never runs them.
        self.local_nodes = frozenset(local_nodes) if local_nodes is not None \
            else None
        self.stats = Stats()
        self.sim = Simulator()
        self.network = Network(config, self.stats)
        self.rng = DeterministicRng(config.seed)
        self.factory = MessageFactory(config)
        topo = self.network.topo
        line = config.cache.line_bytes
        n_nodes = topo.n_nodes
        self.mc_nodes = memory_controller_nodes(
            topo, config.cache.num_memory_controllers
        )

        #: Whether the default address-interleaving map is in use (a
        #: custom ``home_of`` comes from partition experiments).
        self._default_home = home_of is None
        self.home_of = self._make_home_of() if home_of is None else home_of
        self.mc_of = self._make_mc_of()

        #: Everything a functional prewarm reads besides this system's
        #: own streams and home map, when those are the defaults the key
        #: determines; None otherwise (see :func:`prewarm`).
        self.prewarm_key = None
        if (streams is None and home_of is None
                and isinstance(workload, WorkloadProfile)):
            self.prewarm_key = prewarm_key(config, workload)
        if streams is None and workload is not None:
            streams = workload.streams(
                n_nodes, line, self.rng.stream(f"workload/{workload.name}")
            )
        self.tiles: List[Tile] = []
        for node in range(n_nodes):
            ni = self.network.interface(node)
            l2 = L2BankController(node, config, self.factory, ni,
                                  self.mc_of, self.stats)
            l1 = L1Controller(node, config, self.factory, ni,
                              self.home_of, self.stats)
            mc = None
            if node in self.mc_nodes:
                mc = MemoryController(node, config, self.factory, ni, self.stats)
            core = None
            if streams is not None:
                core = Core(node, l1, streams[node], self.stats)
            tile = Tile(node, ni, l1, l2, mc, core)
            self.tiles.append(tile)
            ni.deliver = self._make_dispatch(tile)
        self.cores: List[Core] = [
            tile.core for tile in self.tiles if tile.core is not None]
        # Tick order: cores issue, controllers run due handlers, then the
        # network moves flits.  All channels carry >= 1 cycle so the order
        # only defines intra-cycle convention, not semantics.
        local = self.local_nodes
        for tile in self.tiles:
            if tile.core is not None and (local is None or tile.node in local):
                self.sim.add(tile.core)
        for tile in self.tiles:
            if local is not None and tile.node not in local:
                continue
            self.sim.add(tile.l1)
            self.sim.add(tile.l2)
            if tile.mc is not None:
                self.sim.add(tile.mc)
        # Last, the router core: every router, then every NI.
        self.network.register(self.sim)

    def _make_home_of(self) -> Callable[[int], int]:
        """The default block-interleaved L2 home map."""
        line = self.config.cache.line_bytes
        n_nodes = self.network.topo.n_nodes

        def home_of(addr: int) -> int:
            return (addr // line) % n_nodes

        return home_of

    def _make_mc_of(self) -> Callable[[int], int]:
        """The block-interleaved memory-controller map."""
        line = self.config.cache.line_bytes

        def mc_of(addr: int) -> int:
            return self.mc_nodes[(addr // line) % len(self.mc_nodes)]

        return mc_of

    def _make_dispatch(self, tile: Tile) -> Callable[[Message, int], None]:
        l1, l2, mc = tile.l1, tile.l2, tile.mc

        def dispatch(msg: Message, cycle: int) -> None:
            kind = msg.kind
            if kind in _L2_KINDS:
                l2.receive(msg, cycle)
            elif kind in _L1_KINDS:
                l1.receive(msg, cycle)
            elif kind in _MC_KINDS:
                if mc is None:  # pragma: no cover - address-mapping bug trap
                    raise ValueError(f"node {tile.node} has no MC for {kind}")
                mc.receive(msg, cycle)
            else:  # pragma: no cover
                raise ValueError(f"unroutable message kind {kind}")

        return dispatch

    # ------------------------------------------------------------------
    # Run control.
    # ------------------------------------------------------------------
    def total_retired(self) -> int:
        return sum(core.retired for core in self.cores)

    def _progress(self) -> int:
        """The watchdog's probe, read on every stepped cycle: it must not
        flush the counter batchers (``Stats.counter`` would)."""
        return self.total_retired() + self.network.msgs_delivered()

    def run_cycles(self, cycles: int) -> None:
        self.sim.run(cycles)

    def controller_backlog(self) -> int:
        """Scheduled-but-unexecuted controller actions chip-wide
        (telemetry probe: pressure inside the coherence layer)."""
        total = 0
        for tile in self.tiles:
            total += tile.l1.pending_events() + tile.l2.pending_events()
            if tile.mc is not None:
                total += tile.mc.pending_events()
        return total

    def _deadlock_context(self, cycle: int) -> str:
        """Extra context for DeadlockError messages (watchdog hook)."""
        return (
            f"in flight: {self.network.in_flight()}, "
            f"live circuit entries: "
            f"{self.network.live_circuit_entries(cycle)}"
        )

    def _attach_crash_report(self, error: BaseException) -> None:
        """Attach a forensic crash report to a dying run's exception."""
        if getattr(error, "report", None) is not None:
            return
        try:
            from repro.validate.forensics import crash_report

            error.report = crash_report(
                self.network, system=self, error=error,
                cycle=self.sim.cycle,
            )
        except Exception:  # pragma: no cover - diagnosis must not mask
            pass           # the original failure

    def phase_done(self, phase: Phase, cores: Sequence[Core]) -> bool:
        """The end-of-phase predicate: every one of ``cores`` retired its
        target, or - for a drain - no message is in flight and no
        controller is busy."""
        if not phase.until_idle:
            return all(core.done for core in cores)
        if self.network.in_flight():
            return False
        return all(
            not tile.l1.busy() and not tile.l2.busy()
            and (tile.mc is None or not tile.mc.busy())
            for tile in self.tiles
        )

    def run_phase(self, phase: Phase, run_state: dict) -> None:
        """Execute one armed phase in this process (the local engine's
        half of :func:`run_phases`): ``Simulator.run_until`` from the
        current cycle to the phase's absolute deadline, under a
        :class:`ProgressWatchdog` when the phase is watched.
        """
        sim = self.sim
        watchdog = None
        if phase.watchdog:
            watchdog = ProgressWatchdog(self._progress, phase.watchdog,
                                        on_deadlock=self._deadlock_context)
            sim.add_watchdog(watchdog)
        try:
            sim.run_until(partial(self.phase_done, phase, self.cores),
                          run_state["deadline"] - sim.cycle, run_state["ci"])
        except SimulationError as error:
            self._attach_crash_report(error)
            raise
        finally:
            if watchdog is not None:
                sim.remove_watchdog(watchdog)
            self.stats.flush()

    def run_script(self, warmup_instructions: int = 0,
                   measure_instructions: Optional[int] = 0,
                   at_measure: Optional[Callable[[], None]] = None,
                   ) -> Tuple[Optional[int], Optional[int]]:
        """Run the warm-up + measure script in this process, from the
        start.  Returns ``(start_cycle, finish_cycle)``."""
        return run_phases(self, new_run_state(warmup_instructions,
                                              measure_instructions),
                          self.run_phase, self.cores, at_measure)

    def run_instructions(self, per_core: int,
                         max_cycles: int = MEASURE.deadline,
                         watchdog_window: int = MEASURE.watchdog) -> int:
        """Run until every core retires ``per_core`` more instructions.

        Returns the cycle at which the last core finished (the execution
        time used for the paper's speedup comparisons).  A ``per_core``
        below 1, or a system without cores, raises
        :class:`~repro.config.ConfigError`.
        """
        cores = self.cores
        _require_measured(per_core, "per_core", cores)
        self.run_phase(replace(MEASURE, watchdog=watchdog_window),
                       arm_phase(self, {}, MEASURE, cores, per_core,
                                 max_cycles))
        return max(core.finish_cycle for core in cores)

    def functional_prewarm(self) -> None:
        """Install steady-state cache/directory contents directly.

        Stands in for the paper's 200M-cycle warmup phase, which a pure
        Python cycle simulator cannot afford: each core's hot set is placed
        in its L1 (exclusively owned), its mid region and the shared region
        in the L2, so measurement starts from a steady state.
        """
        from repro.coherence.l1 import L1State

        rng = self.rng.stream("prewarm")
        home_of = self.home_of
        banks = [tile.l2 for tile in self.tiles]
        shared_done = set()
        l1_capacity = self.config.cache.l1_sets * self.config.cache.l1_assoc
        for tile in self.tiles:
            core = tile.core
            if core is None:
                continue
            stream = core.stream
            if not hasattr(stream, "hot_lines"):
                # Replayed trace files carry no region metadata; such
                # systems warm up purely by timing simulation.
                continue
            write_frac = stream.params.write_frac

            def warm_state() -> L1State:
                # Lines written during their residency are MODIFIED at
                # steady state (their eviction produces a writeback).
                if rng.random() < write_frac:
                    return L1State.MODIFIED
                return L1State.EXCLUSIVE

            def own(addr: int) -> bool:
                """Place ``addr`` in this L1, owned at its home bank."""
                return (banks[home_of(addr)].prewarm_line(addr, tile.node)
                        and tile.l1.prewarm_line(addr, warm_state()))

            installed = sum(map(own, stream.hot_lines()))
            # Fill the rest of the L1 with mid-region lines so measurement
            # starts with a full cache (every miss evicts, as at steady
            # state); the remaining mid lines go to the L2 only, each
            # bank's share in one call that places addresses and builds
            # no directory line (the run builds the few it reads).
            mid = stream.mid_lines()
            owned = 0
            while installed < l1_capacity and owned < len(mid):
                installed += own(mid[owned])
                owned += 1
            for home, addrs in self._bank_shares(mid[owned:]):
                banks[home].prewarm_fill(addrs)
            if stream.params.shared_frac:
                n = self.config.n_cores
                for addr in stream.shared_lines():
                    if addr not in shared_done:
                        shared_done.add(addr)
                        # Pre-mark (stale) sharers so first readers get S
                        # grants, as at steady state, instead of a cold
                        # E-grant-then-forward on every line.
                        stale = {(addr // 64) % n, (addr // 64 + 7) % n}
                        banks[home_of(addr)].prewarm_line(addr, sharers=stale)

    def _bank_shares(self, addrs: Sequence[int]
                     ) -> Iterable[Tuple[int, Sequence[int]]]:
        """``(home bank, its addresses in order)`` for ``addrs``.  Under
        the default interleaving every ``n_nodes``-th line of a range of
        consecutive lines has the same home, so a share is a strided
        slice of the range."""
        home_of = self.home_of
        if (self._default_home and isinstance(addrs, range)
                and addrs.step == self.config.cache.line_bytes):
            n_nodes = len(self.tiles)
            return [(home_of(addrs[first]), addrs[first::n_nodes])
                    for first in range(min(n_nodes, len(addrs)))]
        shares = defaultdict(list)
        for addr in addrs:
            shares[home_of(addr)].append(addr)
        return shares.items()

    def prewarm_image(self) -> tuple:
        """The cache and directory state: per tile, the L1 and L2 arrays'
        :meth:`~repro.coherence.cache.CacheArray.image`."""
        return tuple((tile.l1.array.image(L1Line.pack),
                      tile.l2.array.image(DirLine.pack))
                     for tile in self.tiles)

    def restore_prewarm(self, image: tuple) -> None:
        """Put back the state :meth:`prewarm_image` captured.  An image of
        another chip size raises ``ValueError`` before any tile changes."""
        if len(image) != len(self.tiles):
            raise ValueError(f"cannot restore a {len(image)}-tile prewarm "
                             f"image into a {len(self.tiles)}-tile chip")
        for tile, (l1, l2) in zip(self.tiles, image):
            tile.l1.array.restore(l1, L1Line.unpack)
            tile.l2.array.restore(l2, DirLine.unpack)

    def warmup(self, per_core: int,
               max_cycles: int = WARMUP.deadline) -> None:
        """Warm caches/directory, then clear statistics (paper sec. 5.1).

        Combines a functional prewarm (cache/directory contents) with a
        short timing warmup (queues, PLRU state, in-flight traffic): the
        run script up to where measurement would start.
        """
        run_phases(self, new_run_state(per_core, None,
                                       max_warmup_cycles=max_cycles),
                   self.run_phase, self.cores)

    def drain(self, max_cycles: int = DRAIN.deadline) -> int:
        """Run until no message is in flight and no controller is busy."""
        self.run_phase(DRAIN, arm_phase(self, {}, DRAIN,
                                        max_cycles=max_cycles))
        return self.sim.cycle


def build_system(config: SystemConfig,
                 workload: Optional[WorkloadProfile] = None) -> CmpSystem:
    """Public constructor (kept stable for downstream users)."""
    return CmpSystem(config, workload)
