"""Kernel self-profiler: where does simulator wall-time go?

Attaches to a :class:`~repro.sim.kernel.Simulator` by swapping each
registered slot's bound ``tick`` (``_Slot.tick``, the indirection the hot
loops call) for a timing wrapper - and the router core's ``ni_stage``,
the same indirection one level down - so attribution needs no
cooperation from, and adds no cost to, the components themselves.
Detaching restores the original bound methods, leaving the simulator
exactly as it was.

The report aggregates per component *class* and per architectural
*group* (router / ni / coherence / driver), and pairs the wall-time
split with the activity-driven kernel's effectiveness counters
(ticks run vs. cycles skipped) - exactly the numbers the next
optimisation PR needs to pick its target.

Profiled runs are bit-identical to unprofiled ones (the wrapper calls
the original tick with unchanged arguments); only wall-time changes,
which is why the conformance matrix's ``profiled`` mode compares stats,
not seconds.
"""

from __future__ import annotations

import time
from typing import Dict, List

#: Component class -> architectural group of the profiler report.
GROUP_OF = {
    "RouterCore": "router",
    "NetworkInterface": "ni",
    "L1Controller": "coherence",
    "L2BankController": "coherence",
    "MemoryController": "coherence",
    "Core": "driver",
    "RequestReplyTraffic": "driver",
}


def _calibrate_wrapper_overhead(perf, reps: int = 20_000, rounds: int = 3) -> float:
    """Measured cost, in seconds/tick, of the profiler's timing wrapper.

    Times ``reps`` calls through a wrapper identical to the one
    :meth:`KernelProfiler.attach` installs, minus the same calls made
    bare, and keeps the best (least noisy) of ``rounds`` rounds.  The
    report uses this to present overhead-corrected seconds instead of a
    hand-waved constant.
    """
    best = float("inf")
    for _ in range(rounds):
        cell = _Cell()

        def noop(cycle):
            pass

        def timed(cycle, _tick=noop, _cell=cell, _perf=perf):
            start = _perf()
            _tick(cycle)
            _cell.seconds += _perf() - start
            _cell.ticks += 1

        t0 = perf()
        for i in range(reps):
            timed(i)
        wrapped = perf() - t0
        t0 = perf()
        for i in range(reps):
            noop(i)
        bare = perf() - t0
        best = min(best, (wrapped - bare) / reps)
    return max(best, 0.0)


class _Cell:
    """Mutable (ticks, seconds) accumulator shared by one class's slots."""

    __slots__ = ("ticks", "seconds")

    def __init__(self) -> None:
        self.ticks = 0
        self.seconds = 0.0


class KernelProfiler:
    """Per-component-class wall-time and tick attribution.

    ``slot.tick`` is wrapped, and so is the router core's NI stage
    (``RouterCore.ni_stage``).  A component's sleep decision
    (``next_wake``) is kernel time (``kernel_seconds``) for every class -
    the router core as much as cores, controllers and the traffic driver
    - so compare ``router + ni + kernel`` sums across commits that move
    work between a tick and its ``next_wake``, never one column alone.
    A second per-tick wrapper would make the split finer, at a cost the
    observed-run overhead budget does not have.

    Rows are kernel slots, not architectural units, with one exception:
    every router and NI of a network is behind one
    :class:`~repro.noc.router.RouterCore` slot, whose NI stage is
    reported as a ``NetworkInterface`` row (group ``ni``: ``components``
    = NIs, ``ticks`` = NI bodies the core ran, ``seconds`` = stage time)
    and subtracted from the ``RouterCore`` row (group ``router``: one
    tick per awake network cycle).  The core runs its NI stage once per
    tick, so the stage wrapper's cost sits in the router row, and is
    corrected there.
    """

    def __init__(self) -> None:
        self._sim = None
        self._saved: List = []  # (owner, attribute, original)
        self.cells: Dict[str, _Cell] = {}
        self.components: Dict[str, int] = {}
        self.wall_seconds = 0.0
        self._t0 = 0.0
        self._ticks0 = 0
        self._skipped0 = 0
        self._cycle0 = 0
        self.ticks_run = 0
        self.cycles_skipped = 0
        self.cycles = 0
        #: Seconds of self-measurement cost per wrapped tick, calibrated
        #: at attach time (0.0 until attached).
        self.overhead_per_tick = 0.0

    def attach(self, sim) -> "KernelProfiler":
        if self._sim is not None:
            raise RuntimeError("profiler already attached")
        self._sim = sim
        perf = time.perf_counter
        self.overhead_per_tick = _calibrate_wrapper_overhead(perf)
        for slot in sim._slots:
            name = type(slot.component).__name__
            cell = self.cells.setdefault(name, _Cell())
            self.components[name] = self.components.get(name, 0) + 1
            original = slot.tick

            def timed(cycle, _tick=original, _cell=cell, _perf=perf):
                start = _perf()
                _tick(cycle)
                _cell.seconds += _perf() - start
                _cell.ticks += 1

            self._saved.append((slot, "tick", original))
            slot.tick = timed
            stage = getattr(slot.component, "ni_stage", None)
            if stage is not None:
                self._wrap_ni_stage(slot.component, stage, perf)
        self._t0 = perf()
        self._ticks0 = sim.ticks_run
        self._skipped0 = sim.cycles_skipped
        self._cycle0 = sim.cycle
        return self

    def detach(self) -> None:
        sim = self._sim
        if sim is None:
            return
        self.wall_seconds += time.perf_counter() - self._t0
        self.ticks_run += sim.ticks_run - self._ticks0
        self.cycles_skipped += sim.cycles_skipped - self._skipped0
        self.cycles += sim.cycle - self._cycle0
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved.clear()
        self._sim = None

    def _wrap_ni_stage(self, core, stage, perf) -> None:
        """Time the router core's NI stage as a ``NetworkInterface`` row;
        its seconds leave the core's row in :meth:`report`."""
        name = "NetworkInterface"
        cell = self.cells.setdefault(name, _Cell())
        self.components[name] = (self.components.get(name, 0)
                                 + len(core.interfaces))

        def timed(cycle, _stage=stage, _cell=cell, _perf=perf):
            start = _perf()
            ran = _stage(cycle)
            _cell.seconds += _perf() - start
            _cell.ticks += ran
            return ran

        self._saved.append((core, "ni_stage", stage))
        core.ni_stage = timed

    # -- reporting -----------------------------------------------------
    def report(self) -> dict:
        """Attribution as plain data (classes, groups, kernel counters)."""
        if self._sim is not None:  # live snapshot without detaching
            wall = self.wall_seconds + (time.perf_counter() - self._t0)
            ticks = self.ticks_run + (self._sim.ticks_run - self._ticks0)
            skipped = (self.cycles_skipped
                       + (self._sim.cycles_skipped - self._skipped0))
            cycles = self.cycles + (self._sim.cycle - self._cycle0)
        else:
            wall = self.wall_seconds
            ticks = self.ticks_run
            skipped = self.cycles_skipped
            cycles = self.cycles
        seconds = {name: cell.seconds for name, cell in self.cells.items()}
        # Timing-wrapper calls whose cost each row's seconds contain.
        wrapped = {name: cell.ticks for name, cell in self.cells.items()}
        if "NetworkInterface" in seconds:
            seconds["RouterCore"] -= seconds["NetworkInterface"]
            wrapped["RouterCore"] *= 2
            wrapped["NetworkInterface"] = 0
        ticked = sum(seconds.values())
        overhead = self.overhead_per_tick
        classes = {}
        groups: Dict[str, Dict[str, float]] = {}
        for name, cell in sorted(
            self.cells.items(), key=lambda item: -seconds[item[0]]
        ):
            group = GROUP_OF.get(name, "other")
            corrected = max(seconds[name] - wrapped[name] * overhead, 0.0)
            classes[name] = {
                "group": group,
                "components": self.components[name],
                "ticks": cell.ticks,
                "seconds": seconds[name],
                "seconds_corrected": corrected,
                "share": seconds[name] / wall if wall else 0.0,
            }
            agg = groups.setdefault(
                group, {"ticks": 0, "seconds": 0.0, "seconds_corrected": 0.0}
            )
            agg["ticks"] += cell.ticks
            agg["seconds"] += seconds[name]
            agg["seconds_corrected"] += corrected
        for agg in groups.values():
            agg["share"] = agg["seconds"] / wall if wall else 0.0
        possible = ticks + skipped
        overhead_seconds = overhead * sum(wrapped.values())
        return {
            "wall_seconds": wall,
            "kernel_seconds": max(wall - ticked, 0.0),
            "cycles": cycles,
            "ticks_run": ticks,
            "cycles_skipped": skipped,
            "skip_ratio": skipped / possible if possible else 0.0,
            # Calibrated self-measurement cost (see attach): per wrapped
            # tick, in total, and as a share of attributed time.
            "overhead_per_tick": overhead,
            "overhead_seconds": overhead_seconds,
            "overhead_share": overhead_seconds / ticked if ticked else 0.0,
            "classes": classes,
            "groups": groups,
        }

    def table(self) -> str:
        """The report as an ASCII table (CLI ``profile`` output)."""
        report = self.report()
        header = (
            f"{'class':<22}{'group':<11}{'n':>5}{'ticks':>12}"
            f"{'seconds':>10}{'corrected':>11}{'share':>8}"
        )
        lines = [header, "-" * len(header)]
        for name, row in report["classes"].items():
            lines.append(
                f"{name:<22}{row['group']:<11}{row['components']:>5}"
                f"{row['ticks']:>12}{row['seconds']:>10.3f}"
                f"{row['seconds_corrected']:>11.3f}"
                f"{row['share']:>8.1%}"
            )
        lines.append("-" * len(header))
        for group, row in sorted(
            report["groups"].items(), key=lambda item: -item[1]["seconds"]
        ):
            lines.append(
                f"{'':<22}{group:<11}{'':>5}{row['ticks']:>12}"
                f"{row['seconds']:>10.3f}{row['seconds_corrected']:>11.3f}"
                f"{row['share']:>8.1%}"
            )
        lines.append(
            f"kernel overhead {report['kernel_seconds']:.3f}s of "
            f"{report['wall_seconds']:.3f}s wall; "
            f"{report['ticks_run']} ticks over {report['cycles']} cycles, "
            f"{report['cycles_skipped']} component-cycles skipped "
            f"(skip ratio {report['skip_ratio']:.3f})"
        )
        lines.append(
            f"self-measurement: {report['overhead_per_tick'] * 1e9:.0f} ns "
            f"per wrapped tick (calibrated at attach), "
            f"{report['overhead_seconds']:.3f}s total = "
            f"{report['overhead_share']:.1%} of attributed time; "
            f"the corrected column subtracts it"
        )
        return "\n".join(lines)
