"""The saturation hot path vs. the reference pipeline.

The hot-path overhaul's contract is *bit-identical* behaviour: the merged
router tick, the precomputed route tables, the index-rotation arbiters
and the batched counters must produce exactly the same stats counters, means,
histograms and finish cycles as the pre-overhaul reference pipeline
(``config.noc.fastpath = False`` builds ``ReferenceRouter`` /
``ReferenceNetworkInterface`` with the reference arbiters and per-event
stats).  These tests pin that contract at four levels:

* conformance-matrix cells (``pinned``, see ``tests/conftest.py``): full
  traffic runs per variant at saturation and at low load, bare and with
  telemetry + invariant checking attached, and a full CMP system, each
  mode hashing to the golden the reference pipeline generated;
* hypothesis property tests for the building blocks (route tables vs.
  the routing functions, fast vs. reference arbiter);
* the batched-counter flush boundaries (Stats.merge/reset, interval
  probes) and the profiler's self-measurement calibration.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.allocators import ReferenceRoundRobinArbiter, RoundRobinArbiter
from repro.noc.routing import route_for_vn, route_tables, route_xy, route_yx
from repro.noc.topology import Mesh
from repro.noc.traffic import RequestReplyTraffic
from repro.sim.config import SystemConfig, Variant
from repro.sim.stats import Stats
from repro.telemetry import KernelProfiler
from repro.telemetry.metrics import counter_rate
from repro.validate.conformance import Cell

#: Every distinct policy/pipeline shape, including a timed variant so the
#: reservation-window purge path runs under both pipelines.
VARIANTS = [
    Variant.BASELINE,
    Variant.COMPLETE,
    Variant.FRAGMENTED,
    Variant.IDEAL,
    Variant.TIMED_NOACK,
]

#: Saturating load for the 16-node mesh (the regime the tentpole targets).
SATURATION_RATE = 48.0


# ---------------------------------------------------------------------------
# Full traffic runs: fast pipeline and reference pipeline against the golden.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_saturation_bit_identical(variant, pinned):
    pinned(Cell(variant, SATURATION_RATE, 2000), "fast", "reference")


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_low_load_bit_identical(variant, pinned):
    pinned(Cell(variant, 6.0, 2000), "fast", "reference")


@pytest.mark.parametrize(
    "variant", [Variant.COMPLETE, Variant.FRAGMENTED], ids=lambda v: v.name
)
def test_bit_identical_with_telemetry_and_invariants(variant, pinned):
    """Observers force mid-run flushes of the batched counters; results
    must still match a bare reference run exactly (satellite: samplers,
    invariant checkers and forensics always read through a flush)."""
    pinned(Cell(variant, SATURATION_RATE, 2000), "observed+monitored")


@pytest.mark.parametrize(
    "variant", [Variant.FRAGMENTED, Variant.IDEAL], ids=lambda v: v.name
)
def test_activity_driven_matches_always_tick(variant, pinned):
    """Sleeping on the fast pipeline's ``next_wake`` must be invisible:
    forced always-tick mode (``tick`` every cycle, ``next_wake`` never
    asked) produces identical results."""
    pinned(Cell(variant, 24.0, 1500), "fast", "always_tick")


def test_full_system_bit_identical(pinned):
    pinned(Cell(Variant.COMPLETE, "fluidanimate", 200, seed=3),
           "fast", "reference")


# ---------------------------------------------------------------------------
# Precomputed route tables == the routing functions, for every input.
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    side=st.integers(min_value=1, max_value=8),
    here=st.integers(min_value=0),
    dest=st.integers(min_value=0),
    request_xy=st.booleans(),
)
def test_route_tables_match_routing_functions(side, here, dest, request_xy):
    mesh = Mesh(side)
    here %= mesh.n_nodes
    dest %= mesh.n_nodes
    req_table, rep_table = route_tables(mesh, request_xy)
    assert req_table[here][dest] == route_for_vn(
        mesh, 0, here, dest, request_xy)
    assert rep_table[here][dest] == route_for_vn(
        mesh, 1, here, dest, request_xy)
    xy_table = req_table if request_xy else rep_table
    yx_table = rep_table if request_xy else req_table
    assert xy_table[here][dest] == route_xy(mesh, here, dest)
    assert yx_table[here][dest] == route_yx(mesh, here, dest)


def test_route_tables_cover_whole_mesh():
    mesh = Mesh(4)
    req_table, rep_table = route_tables(mesh)
    for here in range(mesh.n_nodes):
        for dest in range(mesh.n_nodes):
            assert req_table[here][dest] == route_xy(mesh, here, dest)
            assert rep_table[here][dest] == route_yx(mesh, here, dest)


# ---------------------------------------------------------------------------
# Arbiters: index rotation vs. the list-copying reference.
# ---------------------------------------------------------------------------
candidate_lists = st.lists(
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(history=candidate_lists)
def test_arbiter_equivalence_property(history):
    """Same grant history in, same winner out - including rounds where the
    previous winner is no longer a candidate."""
    fast = RoundRobinArbiter()
    ref = ReferenceRoundRobinArbiter()
    for candidates in history:
        assert fast.pick(candidates) == ref.pick(candidates)
        assert fast._last == ref._last


@settings(max_examples=200, deadline=None)
@given(history=candidate_lists)
def test_pick_at_matches_pick(history):
    by_value = RoundRobinArbiter()
    by_index = RoundRobinArbiter()
    for candidates in history:
        winner = by_value.pick(candidates)
        assert candidates[by_index.pick_at(candidates)] == winner


def test_arbiter_rotates_fairly():
    arb = RoundRobinArbiter()
    grants = [arb.pick(["a", "b", "c"]) for _ in range(6)]
    assert grants == ["a", "b", "c", "a", "b", "c"]


def test_arbiter_winner_absent_restarts_at_first():
    """Regression for the stale-winner comment/behaviour mismatch: when
    the previous winner is not among the candidates, priority restarts at
    the first candidate in submission order, and that grant becomes the
    new rotation point."""
    for cls in (RoundRobinArbiter, ReferenceRoundRobinArbiter):
        arb = cls()
        assert arb.pick(["a", "b"]) == "a"
        # "a" disappeared: restart at the first candidate...
        assert arb.pick(["b", "c"]) == "b"
        # ...and "b" is now the rotation point, so "c" is next.
        assert arb.pick(["a", "b", "c"]) == "c"


def test_arbiter_empty_candidates():
    assert RoundRobinArbiter().pick([]) is None
    assert ReferenceRoundRobinArbiter().pick([]) is None


# ---------------------------------------------------------------------------
# Batched-counter flush boundaries.
# ---------------------------------------------------------------------------
def _batched_stats(pending):
    """A Stats with one registered batcher holding ``pending`` deltas."""
    stats = Stats()
    cell = dict(pending)

    def flusher():
        for key, value in list(cell.items()):
            if value:
                stats.counters[key] += value
                cell[key] = 0

    stats.add_flusher(flusher)
    return stats, cell


def test_stats_counter_reads_flush_batchers():
    stats, cell = _batched_stats({"noc.link_flits": 7})
    assert stats.counter("noc.link_flits") == 7
    assert cell["noc.link_flits"] == 0


def test_stats_merge_flushes_both_sides():
    a, cell_a = _batched_stats({"k": 3})
    b, cell_b = _batched_stats({"k": 4})
    a.bump("k", 10)
    a.merge(b)
    assert a.counters["k"] == 17
    assert cell_a["k"] == 0 and cell_b["k"] == 0


def test_stats_reset_zeroes_batchers():
    stats, cell = _batched_stats({"k": 9})
    stats.reset()
    assert cell["k"] == 0
    assert stats.counter("k") == 0


def test_counter_rate_probe_sees_batched_deltas():
    """Interval probes must observe batched increments exactly as if each
    event had been bumped individually (sampler reads force a flush)."""
    stats, cell = _batched_stats({"k": 0})
    probe = counter_rate(stats, "k", interval=10)
    assert probe(10) == 0.0
    cell["k"] += 25
    assert probe(20) == 2.5
    cell["k"] += 5
    stats.bump("k", 5)
    assert probe(30) == 1.0


# ---------------------------------------------------------------------------
# Profiler self-measurement calibration (and slot.tick wrapping).
# ---------------------------------------------------------------------------
def test_profiler_calibration_reports_overhead():
    cfg = SystemConfig(n_cores=16).with_variant(Variant.COMPLETE)
    t = RequestReplyTraffic(cfg, 12.0, seed=2)
    profiler = KernelProfiler().attach(t.sim)
    t.run(500)
    profiler.detach()
    report = profiler.report()
    assert profiler.overhead_per_tick >= 0.0
    assert report["overhead_per_tick"] == profiler.overhead_per_tick
    assert report["overhead_seconds"] >= 0.0
    router_row = report["classes"]["Router"]
    assert router_row["ticks"] > 0
    assert router_row["seconds_corrected"] <= router_row["seconds"]
    assert "corrected" in profiler.table()


def test_profiler_wraps_slot_tick_and_restores_it():
    cfg = SystemConfig(n_cores=16).with_variant(Variant.BASELINE)
    t = RequestReplyTraffic(cfg, 12.0, seed=2)
    saved = [slot.tick for slot in t.sim._slots]
    profiler = KernelProfiler().attach(t.sim)
    assert all(slot.tick != tick for slot, tick in zip(t.sim._slots, saved))
    t.run(400)
    profiler.detach()
    assert [slot.tick for slot in t.sim._slots] == saved
    # the profiled ticks came through the wrapper
    assert profiler.report()["classes"]["Router"]["ticks"] > 0


def test_profiled_run_is_bit_identical(pinned):
    pinned(Cell(Variant.COMPLETE, SATURATION_RATE, 1200), "profiled")
