"""Full-system integration: cores + MESI + NoC + circuits together."""

import pytest

from repro import Variant, build_system, workload_by_name
from repro.coherence.l1 import L1State
from repro.sim.config import SystemConfig, small_test_config

WORKLOAD = "fluidanimate"  # shared + writes: exercises every message type


def run_small(variant, instrs=600, n_cores=16, wl=WORKLOAD, seed=3):
    cfg = small_test_config(n_cores, variant, seed=seed)
    system = build_system(cfg, workload_by_name(wl))
    cycles = system.run_instructions(instrs, max_cycles=1_500_000)
    return system, cycles


@pytest.mark.parametrize("variant", list(Variant))
def test_all_variants_run_to_completion(variant):
    system, cycles = run_small(variant, instrs=300)
    assert cycles > 0
    assert all(core.done for core in system.cores)
    system.drain()
    assert system.network.in_flight() == 0
    # no live circuit state may leak after drain (timed entries expire)
    assert system.network.live_circuit_entries(system.sim.cycle) == 0


def test_same_seed_is_deterministic():
    a, cycles_a = run_small(Variant.COMPLETE_NOACK, instrs=400)
    b, cycles_b = run_small(Variant.COMPLETE_NOACK, instrs=400)
    assert cycles_a == cycles_b
    assert a.stats.counters == b.stats.counters


def test_single_writer_invariant():
    """At any L2 bank, a line has either one owner or sharers, never both."""
    system, _ = run_small(Variant.COMPLETE_NOACK, instrs=500)
    for tile in system.tiles:
        for addr, line in tile.l2.array.items():
            if line.owner is not None:
                assert not line.sharers, (
                    f"line {addr:#x} has owner {line.owner} and sharers "
                    f"{line.sharers}"
                )


def test_l1_modified_implies_l2_ownership():
    """Inclusive L2: every dirty L1 line is tracked as owned."""
    system, _ = run_small(Variant.BASELINE, instrs=500)
    system.drain()
    for tile in system.tiles:
        for addr, line in tile.l1.array.items():
            if line.state is L1State.MODIFIED:
                home = system.tiles[system.home_of(addr)]
                dir_line = home.l2.array.peek(addr)
                assert dir_line is not None, f"L1-M line {addr:#x} not in L2"
                assert dir_line.owner == tile.node or dir_line.busy


def test_noack_eliminates_data_acks():
    with_ack, _ = run_small(Variant.COMPLETE, instrs=500)
    no_ack, _ = run_small(Variant.COMPLETE_NOACK, instrs=500)
    acks_with = with_ack.stats.counter("msg.count.L1_DATA_ACK")
    acks_without = no_ack.stats.counter("msg.count.L1_DATA_ACK")
    eliminated = no_ack.stats.counter("circuit.outcome.eliminated")
    assert eliminated > 0
    assert acks_without < acks_with


def test_forwarded_requests_undo_circuits():
    system, _ = run_small(Variant.COMPLETE, instrs=800)
    s = system.stats
    if s.counter("msg.count.L1_TO_L1"):
        assert s.counter("circuit.outcome.undone") > 0


def test_circuit_variants_deliver_same_instruction_work():
    """All variants execute identical instruction streams (same seed)."""
    retired = {}
    for variant in (Variant.BASELINE, Variant.COMPLETE, Variant.IDEAL):
        system, _ = run_small(variant, instrs=400)
        retired[variant] = system.total_retired()
    assert len(set(retired.values())) == 1


def test_circuits_do_not_break_coherence_traffic_counts():
    """Message-type population is identical apart from eliminated ACKs."""
    base, _ = run_small(Variant.BASELINE, instrs=500)
    circ, _ = run_small(Variant.COMPLETE_NOACK, instrs=500)

    def counts(system, kind):
        return system.stats.counter(f"msg.count.{kind}")

    for kind in ("GETS", "GETX", "WB_L1", "MEM_READ"):
        assert abs(counts(base, kind) - counts(circ, kind)) <= max(
            6, 0.2 * counts(base, kind)
        ), kind


def test_ideal_is_fastest_baseline_slowest():
    _, base = run_small(Variant.BASELINE, instrs=600)
    _, complete = run_small(Variant.COMPLETE_NOACK, instrs=600)
    _, ideal = run_small(Variant.IDEAL, instrs=600)
    assert ideal <= complete <= base * 1.02  # circuits never much worse
    assert ideal < base


def test_prewarm_populates_caches():
    cfg = SystemConfig(n_cores=16)
    system = build_system(cfg, workload_by_name("canneal"))
    assert all(t.l1.array.occupancy() == 0 for t in system.tiles)
    system.functional_prewarm()
    l1_occ = sum(t.l1.array.occupancy() for t in system.tiles)
    l2_occ = sum(t.l2.array.occupancy() for t in system.tiles)
    assert l1_occ >= 16 * 400  # L1s filled close to capacity
    assert l2_occ > l1_occ


def test_warmup_resets_stats():
    cfg = small_test_config(16, Variant.BASELINE)
    system = build_system(cfg, workload_by_name(WORKLOAD))
    system.warmup(100)
    assert system.stats.counter("noc.msgs_delivered") == 0
    system.run_instructions(100)
    assert system.stats.counter("noc.msgs_delivered") > 0


def test_watchdog_attached_and_detached():
    cfg = small_test_config(16, Variant.BASELINE)
    system = build_system(cfg, workload_by_name(WORKLOAD))
    system.run_instructions(50)
    assert system.sim._watchdogs == []
