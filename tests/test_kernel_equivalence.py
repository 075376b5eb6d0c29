"""The activity-driven kernel, pinned to a kernel that ticks everything.

The kernel's contract is *bit-identical* behaviour: skipping sleeping
components and fast-forwarding globally-quiet gaps must produce exactly
the same Stats snapshots and finish cycles as ticking every component on
every cycle.  That second kernel mode is gone; what it produced survives
as the committed goldens and as literals below.  These tests pin the
contract at three levels:

* scripted ClockedV2 components against the raw :class:`Simulator`
  (wake/sleep bookkeeping, scheduled wakeups, external pokes,
  fast-forward accounting, watchdog interaction);
* conformance-matrix cells (``pinned``, see ``tests/conftest.py``) of the
  synthetic traffic driver, for the variants the kernel benchmark sweeps
  (BASELINE, COMPLETE, COMPLETE_NOACK), plus a hypothesis property test
  over randomized short workloads under the ``kernel_sleep`` audit;
* a full CMP system (cores + MESI + NoC) against its golden.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Variant
from repro.noc.traffic import RequestReplyTraffic
from repro.sim.config import SystemConfig
from repro.sim.kernel import DeadlockError, ProgressWatchdog, Simulator
from repro.validate import conformance
from repro.validate.conformance import Cell

VARIANTS = [Variant.BASELINE, Variant.COMPLETE, Variant.COMPLETE_NOACK]


# ---------------------------------------------------------------------------
# Scripted components against the raw kernel.
# ---------------------------------------------------------------------------
class Pulser:
    """Ticks once every ``period`` cycles via scheduled wakeups."""

    def __init__(self, period):
        self.period = period
        self.ticks = []
        self.kernel_wake = None

    def tick(self, cycle):
        self.ticks.append(cycle)

    def next_wake(self, cycle):
        return cycle + self.period


class Sleeper:
    """Sleeps indefinitely; only an external poke can wake it."""

    def __init__(self):
        self.ticks = []
        self.kernel_wake = None

    def tick(self, cycle):
        self.ticks.append(cycle)

    def next_wake(self, cycle):
        return None


class PlainCounter:
    """A legacy Clocked component: no next_wake, never sleeps."""

    def __init__(self):
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)


def test_scheduled_wakeups_fire_exactly():
    sim = Simulator()
    p = Pulser(5)
    sim.add(p)
    sim.run(21)
    assert p.ticks == [0, 5, 10, 15, 20]
    assert sim.ticks_run == 5
    assert sim.cycles_skipped == 21 - 5
    assert sim.skip_ratio() == pytest.approx(1 - 5 / 21)


def test_plain_clocked_component_never_sleeps():
    sim = Simulator()
    c = PlainCounter()
    sim.add(c)
    sim.run(6)
    assert c.ticks == list(range(6))
    assert sim.cycles_skipped == 0


def test_awake_plain_component_blocks_fast_forward():
    sim = Simulator()
    p = Pulser(10)
    c = PlainCounter()
    sim.add(p)
    sim.add(c)
    sim.run(12)
    # the plain component keeps at least one slot awake every cycle, so
    # the clock may never jump, but the pulser still sleeps in between
    assert c.ticks == list(range(12))
    assert p.ticks == [0, 10]
    assert sim.cycles_skipped == 0


def test_external_wake_poke():
    sim = Simulator()
    s = Sleeper()
    sim.add(s)
    sim.run(3)
    assert s.ticks == [0]  # slept after its first tick
    s.kernel_wake(7)
    sim.run(7)  # clock is at 3; advance through cycle 9
    assert s.ticks == [0, 7]
    assert sim.cycle == 10


def test_wake_poke_in_the_past_clamps_to_now():
    sim = Simulator()
    s = Sleeper()
    sim.add(s)
    sim.run(5)
    s.kernel_wake(2)  # already in the past: wake as soon as possible
    sim.run(1)
    assert s.ticks == [0, 5]


def test_earlier_poke_overrides_later_schedule():
    sim = Simulator()
    s = Sleeper()
    sim.add(s)
    sim.run(1)
    s.kernel_wake(9)
    s.kernel_wake(4)
    sim.run(9)
    # woken at 4 by the earlier poke; the stale cycle-9 heap entry then
    # delivers a spurious (harmless, tick-is-a-no-op) wakeup at 9.  The
    # contract only promises ticks are never *missed*.
    assert s.ticks == [0, 4, 9]


def test_sleeping_slots_reports_schedule():
    sim = Simulator()
    p = Pulser(50)
    s = Sleeper()
    sim.add(p)
    sim.add(s)
    sim.run(1)
    assert sim.sleeping() == [p, s]
    assert sim.sleeping_slots() == [(p, 50), (s, None)]


def test_watchdog_without_next_due_disables_fast_forward():
    sim = Simulator()
    p = Pulser(10)
    sim.add(p)
    calls = []
    sim.add_watchdog(calls.append)
    sim.run(20)
    assert calls == list(range(20))
    assert sim.cycles_skipped == 0
    assert p.ticks == [0, 10]  # the component itself still sleeps


def test_remove_watchdog_restores_fast_forward():
    sim = Simulator()
    p = Pulser(10)
    sim.add(p)
    calls = []
    hook = calls.append
    sim.add_watchdog(hook)
    sim.run(5)
    sim.remove_watchdog(hook)
    sim.run(15)
    assert calls == list(range(5))
    assert sim.cycles_skipped > 0


def test_progress_watchdog_stalls_at_identical_cycle():
    class ModuloWorker:
        """Observable progress only on multiples of ``period``."""

        def __init__(self, period):
            self.period = period
            self.work = 0
            self.kernel_wake = None

        def tick(self, cycle):
            if cycle % self.period == 0:
                self.work += 1

        def next_wake(self, cycle):
            return cycle + self.period - cycle % self.period

    sim = Simulator()
    w = ModuloWorker(50)
    sim.add(w)
    sim.add_watchdog(ProgressWatchdog(lambda: w.work, window=10))
    with pytest.raises(DeadlockError) as exc:
        sim.run(100)
    # where a kernel ticking every cycle stalled: the watchdog's next_due
    # bounds the fast-forward to the exact cycle the window expires
    assert (exc.value.cycle, exc.value.last_progress_cycle) == (10, 0)


def test_run_until_deadline_clamp_with_sleepers():
    sim = Simulator()
    p = Pulser(100)
    sim.add(p)
    with pytest.raises(DeadlockError):
        sim.run_until(lambda: False, max_cycles=30, check_interval=1000)
    assert sim.cycle == 30  # fast-forward never overshoots the deadline


def test_run_until_finish_cycle_matches_always_tick():
    sim = Simulator()
    p = Pulser(7)
    sim.add(p)
    # ``done()`` is checked on the same 64-cycle boundaries a kernel
    # ticking every cycle used, so the third tick (cycle 14) reports 64
    assert sim.run_until(lambda: len(p.ticks) >= 3, max_cycles=1000) == 64


# ---------------------------------------------------------------------------
# Traffic driver over a full network.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
@pytest.mark.parametrize("rate", [1.0, 24.0])
def test_traffic_bit_identical(variant, rate, pinned):
    pinned(Cell(variant, rate, 3000), "fast")


def test_activity_kernel_actually_skips_work():
    cfg = SystemConfig(n_cores=16).with_variant(Variant.COMPLETE)
    t = RequestReplyTraffic(cfg, 1.0, seed=1)
    t.run(3000)
    t.drain()
    assert t.sim.skip_ratio() > 0.5
    assert t.sim.cycles_skipped > 0


@settings(max_examples=10, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    rate=st.sampled_from([0.25, 2.0, 9.0, 30.0]),
    seed=st.integers(min_value=0, max_value=2**16),
    cycles=st.integers(min_value=200, max_value=1500),
)
def test_property_randomized_workloads_match(variant, rate, seed, cycles):
    """Every sleep decision of the run passes the ``kernel_sleep`` audit,
    and auditing it does not change what it measures."""
    cell = Cell(variant, rate, cycles, seed=seed)
    assert not conformance.diff(conformance.run(cell, "monitored"),
                                conformance.run(cell))


# ---------------------------------------------------------------------------
# Full CMP system (cores + MESI + NoC + circuits).
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_full_system_bit_identical(variant, pinned):
    pinned(Cell(variant, "fluidanimate", 200, seed=3), "fast")
