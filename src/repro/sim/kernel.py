"""Activity-driven simulation kernel.

The whole system is simulated with a single global clock.  Every component
registers with the :class:`Simulator` and exposes a ``tick(cycle)`` method.
Components communicate exclusively through pipelined channels (the NoC's
arrival calendar, controller event queues, network-interface queues)
whose minimum latency is one cycle, so the order in which components tick
within a cycle does not change the architecture-visible behaviour.

The kernel is *activity-driven*: components that also implement the
:class:`ClockedV2` protocol report, after each tick, the next cycle at
which they could possibly do observable work.  The simulator keeps the
awake components in a registration-ordered set, sleeping components in a
min-heap of scheduled wakeups, and skips ticking anything asleep.  When
*every* component sleeps, the global clock fast-forwards straight to the
earliest scheduled event (bounded by watchdog/invariant-monitor due
cycles, so hook behaviour is unchanged).

Correctness contract (see ``docs/architecture.md``):

* a sleeping component's ``tick`` would have been a no-op on every skipped
  cycle - guaranteed because every cross-component channel carries >= 1
  cycle of latency and every producer pokes its consumer's ``kernel_wake``
  with the arrival cycle;
* awake components still tick in exact registration order, so runs are
  bit-identical (same stats, same finish cycles) to a kernel that ticks
  everything every cycle - the committed conformance goldens were
  generated by one, and the invariant monitor's ``kernel_sleep`` check
  audits every sleep decision of a monitored run.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Callable, List, Optional, Protocol, Tuple

_SLOT_ORDER = attrgetter("order")


class Clocked(Protocol):
    """Anything advanced once per cycle by the simulator."""

    def tick(self, cycle: int) -> None:
        """Perform this component's work for ``cycle``."""


class ClockedV2(Clocked, Protocol):
    """A clocked component that can report idleness to the kernel.

    ``next_wake(cycle)`` is called right after ``tick(cycle)`` and returns
    the earliest future cycle at which this component could do observable
    work on its own:

    * ``cycle + 1`` (or anything ``<= cycle + 1``): stay awake;
    * some later cycle ``d``: sleep until ``d`` (scheduled wakeup);
    * ``None``: sleep indefinitely - only an external ``kernel_wake`` poke
      (e.g. a flit arriving on a link) can wake it.

    Plain :class:`Clocked` objects without ``next_wake`` are adapted
    transparently: they simply never sleep.
    """

    def next_wake(self, cycle: int) -> Optional[int]:
        """Earliest cycle this component needs to tick again, or None."""


class SimulationError(RuntimeError):
    """Raised when the simulated system reaches an inconsistent state."""


class DeadlockError(SimulationError):
    """Raised when the system makes no forward progress for too long.

    ``cycle`` and ``last_progress_cycle`` locate the stall in time;
    ``report`` is filled in by higher layers (``repro.validate``) with a
    structured crash report when forensics are available.
    """

    def __init__(
        self,
        message: str,
        cycle: Optional[int] = None,
        last_progress_cycle: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.last_progress_cycle = last_progress_cycle
        self.report = None


class _Slot:
    """Kernel bookkeeping for one registered component."""

    __slots__ = ("component", "order", "awake", "wake_at", "next_wake", "tick")

    def __init__(self, component: Clocked, order: int) -> None:
        self.component = component
        self.order = order
        #: Components start awake; their first ``next_wake`` may sleep them.
        self.awake = True
        #: Earliest scheduled wakeup while asleep (None = external only).
        self.wake_at: Optional[int] = None
        #: Bound ``component.next_wake`` or None for plain Clocked objects.
        self.next_wake = getattr(component, "next_wake", None)
        #: Bound ``component.tick``; the hot loops call through this slot
        #: attribute so instrumentation (the telemetry kernel profiler)
        #: can interpose a timing wrapper without touching the component.
        self.tick = component.tick


class Simulator:
    """Owns the global clock and the ordered list of clocked components.

    Components tick in registration order.  Registration order is chosen by
    the system builder so that producers of same-cycle events (e.g. routers
    feeding ejection queues) run before their consumers when that matters
    for modelling; all cross-component channels still carry >= 1 cycle of
    latency.

    Sleeping components are skipped entirely; see the module docstring for
    the wake/sleep contract.  ``ticks_run`` and ``cycles_skipped`` expose
    how much work the activity tracking saved (:meth:`skip_ratio`).
    """

    def __init__(self) -> None:
        self.cycle = 0
        self._slots: List[_Slot] = []
        #: Awake slots in registration order; a cycle touches only these.
        self._awake: List[_Slot] = []
        self._wake_heap: List[Tuple[int, int, _Slot]] = []
        self._watchdogs: List[Callable[[int], None]] = []
        #: Component tick() calls actually executed.
        self.ticks_run = 0
        #: Cycles the global clock jumped over with nothing awake.
        self.cycles_skipped = 0

    # -- registration --------------------------------------------------
    def add(self, component: Clocked) -> None:
        """Register ``component`` to be ticked every awake cycle.

        The component is handed a ``kernel_wake(at=None)`` callable so that
        producers (links, protocol calls) can wake it for cycle ``at``
        (``None`` = as soon as possible).  Objects that cannot take the
        attribute (``__slots__``) simply stay externally unwakeable.
        """
        slot = _Slot(component, len(self._slots))
        self._slots.append(slot)
        self._awake.append(slot)
        try:
            component.kernel_wake = self._make_wake(slot)
        except AttributeError:  # pragma: no cover - slotted component
            pass

    def _make_wake(self, slot: _Slot) -> Callable[[Optional[int]], None]:
        def wake(at: Optional[int] = None) -> None:
            if slot.awake:
                return
            target = self.cycle if at is None else at
            if target < self.cycle:
                target = self.cycle
            if slot.wake_at is not None and slot.wake_at <= target:
                return  # an earlier (or equal) wakeup is already queued
            slot.wake_at = target
            heapq.heappush(self._wake_heap, (target, slot.order, slot))

        return wake

    def add_watchdog(self, hook: Callable[[int], None]) -> None:
        """Register a hook invoked after every executed cycle.

        Hooks may expose ``next_due(cycle) -> int`` (the next cycle at
        which skipping them would change their behaviour); hooks without
        it disable clock fast-forwarding entirely, which is always safe.
        """
        self._watchdogs.append(hook)

    def remove_watchdog(self, hook: Callable[[int], None]) -> None:
        """Unregister a hook previously passed to :meth:`add_watchdog`."""
        self._watchdogs.remove(hook)

    # -- introspection -------------------------------------------------
    def skip_ratio(self) -> float:
        """Fraction of component-ticks avoided vs. ticking every component
        every cycle."""
        possible = len(self._slots) * self.cycle
        if possible <= 0:
            return 0.0
        return 1.0 - self.ticks_run / possible

    def sleeping(self) -> List[Clocked]:
        """Currently sleeping components (debug/invariant auditing)."""
        return [slot.component for slot in self._slots if not slot.awake]

    def sleeping_slots(self) -> List[Tuple[Clocked, Optional[int]]]:
        """``(component, scheduled_wake_cycle)`` for every sleeper.

        ``scheduled_wake_cycle`` is None for components waiting purely on
        an external ``kernel_wake`` poke.  Used by the ``kernel_sleep``
        invariant check to audit the wake bookkeeping.
        """
        return [
            (slot.component, slot.wake_at)
            for slot in self._slots
            if not slot.awake
        ]

    # -- the clock -----------------------------------------------------
    def _step_awake(self, cycle: int) -> None:
        """Tick the awake set for ``cycle`` and apply sleep decisions."""
        heap = self._wake_heap
        heappush = heapq.heappush
        awake = self._awake
        if heap and heap[0][0] <= cycle:
            woken: List[_Slot] = []
            while heap and heap[0][0] <= cycle:
                slot = heapq.heappop(heap)[2]
                if not slot.awake:
                    slot.awake = True
                    slot.wake_at = None
                    woken.append(slot)
            if woken:
                # Timsort spots the two pre-sorted runs, so the merge
                # back into registration order is linear in len(awake).
                awake = awake + woken
                awake.sort(key=_SLOT_ORDER)
                self._awake = awake
        self.ticks_run += len(awake)
        wake_bound = cycle + 1
        slept = False
        for slot in awake:
            slot.tick(cycle)
            next_wake = slot.next_wake
            if next_wake is None:
                continue
            due = next_wake(cycle)
            if due is not None and due <= wake_bound:
                continue
            slot.awake = False
            slept = True
            if due is not None:
                slot.wake_at = due
                heappush(heap, (due, slot.order, slot))
        if slept:
            self._awake = [slot for slot in awake if slot.awake]

    def _next_event(self, horizon: int) -> int:
        """Earliest cycle in ``(self.cycle, horizon]`` anything is due.

        Only meaningful when no component is awake.  Considers the wake
        heap and every watchdog's ``next_due``; a watchdog without one
        pins the result to the current cycle (no skipping).
        """
        cycle = self.cycle
        nxt = horizon
        heap = self._wake_heap
        while heap and heap[0][2].awake:
            heapq.heappop(heap)  # stale entry for an already-awake slot
        if heap and heap[0][0] < nxt:
            nxt = heap[0][0]
        for hook in self._watchdogs:
            next_due = getattr(hook, "next_due", None)
            if next_due is None:
                return cycle
            due = next_due(cycle)
            if due is not None and due < nxt:
                nxt = due
        return nxt if nxt > cycle else cycle

    def _advance(self, target: int) -> None:
        """Advance the clock to ``target``, skipping globally-quiet gaps.

        Each executed cycle ticks the awake set (:meth:`_step_awake`)
        and then runs every watchdog hook; a cycle with nothing awake is
        jumped over together with every following one up to the next
        scheduled wakeup or hook due cycle.  The hook list is hoisted out
        of the loop: ``self._watchdogs`` is mutated in place by
        add/remove_watchdog, so the binding stays current.
        """
        hooks = self._watchdogs
        heap = self._wake_heap
        while self.cycle < target:
            if not self._awake:
                if hooks:
                    nxt = self._next_event(target)
                else:
                    # Hook-free inline of _next_event: drop stale heap
                    # entries, then jump to the earliest wakeup (or the
                    # whole way to target if nothing is scheduled).
                    while heap and heap[0][2].awake:
                        heapq.heappop(heap)
                    nxt = heap[0][0] if heap and heap[0][0] < target else target
                if nxt > self.cycle:
                    # Nothing can tick and no hook is due before nxt:
                    # every skipped cycle would have executed zero
                    # component work.
                    self.cycles_skipped += nxt - self.cycle
                    self.cycle = nxt
                    continue
            cycle = self.cycle
            self._step_awake(cycle)
            for hook in hooks:
                hook(cycle)
            self.cycle = cycle + 1

    def run(self, cycles: int) -> None:
        """Advance the system by ``cycles`` cycles."""
        self._advance(self.cycle + cycles)

    def run_until(
        self,
        done: Callable[[], bool],
        max_cycles: int,
        check_interval: int = 64,
    ) -> int:
        """Run until ``done()`` returns True, checking every ``check_interval``.

        Returns the cycle count at completion and raises
        :class:`DeadlockError` if ``max_cycles`` elapse first.

        ``done()`` is evaluated on exactly the same cycle boundaries as a
        plain cycle-driven loop would use (chunks of ``check_interval``
        clamped to the deadline), so completion cycles are bit-identical
        whether or not the clock fast-forwarded inside a chunk.
        """
        deadline = self.cycle + max_cycles
        if done():
            return self.cycle
        while self.cycle < deadline:
            # clamp the chunk so we never step past the deadline and
            # report success for work done on borrowed cycles
            self._advance(min(self.cycle + check_interval, deadline))
            if done():
                return self.cycle
        raise DeadlockError(
            f"simulation did not complete within {max_cycles} cycles",
            cycle=self.cycle,
        )


class ProgressWatchdog:
    """Detects global deadlock: no observable progress for ``window`` cycles.

    ``probe`` returns a monotonically increasing progress measure (for a CMP
    run we use total retired instructions plus delivered messages).

    ``on_deadlock``, when given, is called with the stalled cycle just
    before the :class:`DeadlockError` is raised and may return a string
    of extra context (in-flight flits, live circuit entries, ...) that is
    appended to the error message.
    """

    def __init__(
        self,
        probe: Callable[[], int],
        window: int = 200_000,
        on_deadlock: Optional[Callable[[int], Optional[str]]] = None,
    ) -> None:
        self._probe = probe
        self._window = window
        self._on_deadlock = on_deadlock
        self._last_value = -1
        self._last_change = 0

    def next_due(self, cycle: int) -> int:
        """Earliest cycle this hook could act (kernel fast-forward bound).

        During a globally-quiet gap the probe cannot change (no component
        runs), so the only cycle that matters is the one where the stall
        window expires.  If the probe already moved since the last call,
        the hook must run now to record the change.
        """
        if self._probe() != self._last_value:
            return cycle
        return self._last_change + self._window

    def __call__(self, cycle: int) -> None:
        value = self._probe()
        if value != self._last_value:
            self._last_value = value
            self._last_change = cycle
        elif cycle - self._last_change >= self._window:
            message = (
                f"no progress for {self._window} cycles (cycle {cycle}, "
                f"last progress at cycle {self._last_change}, "
                f"progress value {value})"
            )
            if self._on_deadlock is not None:
                extra = self._on_deadlock(cycle)
                if extra:
                    message = f"{message}; {extra}"
            raise DeadlockError(
                message,
                cycle=cycle,
                last_progress_cycle=self._last_change,
            )
