"""Design-choice ablations called out in DESIGN.md."""

from random import Random

import pytest

from repro import build_system, workload_by_name
from repro.cpu.trace import AccessStream
from repro.harness.sweeps import load_sweep, mesh_scaling_sweep
from repro.noc.topology import Mesh
from repro.partition import build_partitioned_system, quadrants
from repro.sim.config import (
    CircuitConfig,
    CircuitMode,
    SystemConfig,
    Variant,
    small_test_config,
)
from repro.system import CmpSystem

import sys
sys.path.insert(0, __file__.rsplit("/", 1)[0])
from conftest import ScriptedChip  # noqa: E402


def test_undo_on_l2_miss_marks_replies_undone():
    """Section 4.4 ablation: undoing on L2 misses produces 'undone' replies
    (the paper measured keep-built to perform better)."""
    base_cfg = small_test_config(16, Variant.COMPLETE, seed=5)
    undo_cfg = base_cfg.with_circuit(
        CircuitConfig(mode=CircuitMode.COMPLETE, undo_on_l2_miss=True)
    )
    keep = build_system(base_cfg, workload_by_name("fft"))
    undo = build_system(undo_cfg, workload_by_name("fft"))
    keep_cycles = keep.run_instructions(500, max_cycles=1_500_000)
    undo_cycles = undo.run_instructions(500, max_cycles=1_500_000)
    assert undo.stats.counter("circuit.origin_cancelled") > 0
    assert (undo.stats.counter("circuit.outcome.undone")
            > keep.stats.counter("circuit.outcome.undone"))
    # keep-built is at least as fast (the paper's finding), within noise
    assert keep_cycles <= undo_cycles * 1.05


def test_ablation_circuits_per_input():
    """The paper's choice of 5 circuits per input port: going from 1 to 5
    entries recovers failed reservations; beyond that the returns vanish
    (Table 5: the 5th entry serves only ~6 % of reservations)."""
    fail = {}
    for capacity in (1, 5, 8):
        config = SystemConfig(n_cores=16, seed=1).with_circuit(CircuitConfig(
            mode=CircuitMode.COMPLETE, no_ack=True,
            max_circuits_per_input=capacity))
        system = build_system(config, workload_by_name("canneal"))
        system.warmup(300)
        system.run_instructions(1200)
        failed = system.stats.counter("circuit.reservation_failed")
        fail[capacity] = failed / max(1, failed + system.stats.counter(
            "circuit.reservations"))
    assert fail[1] > fail[5]  # more storage, fewer failures
    assert fail[5] - fail[8] < fail[1] - fail[5]


@pytest.mark.parametrize("capacity,expected", [(1, 1), (3, 3), (5, 5)])
def test_circuits_per_input_capacity(capacity, expected):
    """The paper chose 5 circuits/input experimentally; the limit binds."""
    cfg = SystemConfig(n_cores=16).with_circuit(
        CircuitConfig(mode=CircuitMode.COMPLETE,
                      max_circuits_per_input=capacity)
    )
    chip = ScriptedChip(16)
    chip.config = cfg
    from repro.noc.network import Network

    chip.net = Network(cfg)
    for node in range(16):
        chip.net.set_deliver(node, chip._on_deliver)
    chip.turnaround = 2000
    reqs = [chip.request(0, 15, addr=0x100 * (i + 1)) for i in range(6)]
    chip.run(300)
    reserved = [r for r in reqs if r.walk and r.walk.fully_reserved]
    assert len(reserved) == expected
    chip.run_until_drained(60000)


def test_ablation_mesh_scaling():
    """Paper section 5.5: latencies grow with mesh size (16x16 vs 4x4).

    The 16x16 point (256 tiles, the paper's largest configuration) runs
    under the sharded engine - the configuration the engine exists for -
    so this ablation also exercises sharding at scale.
    """
    from repro.sim.shard import run_sharded

    measure = 60  # measure-only quantum: 256 pure-Python tiles are slow
    small = build_system(small_test_config(16, Variant.COMPLETE, seed=3),
                         workload_by_name("canneal"))
    start = small.sim.cycle
    finish = small.run_instructions(measure, max_cycles=2_000_000)
    small_latency = small.stats.means["lat.net.req"].mean

    big = run_sharded(small_test_config(256, Variant.COMPLETE, seed=3),
                      "canneal", 0, measure, n_shards=2, check=False)
    assert big.n_shards == 2
    assert big.exec_cycles > 0
    retired = big.stats.counter("core.instructions")
    if retired:  # counter name guarded: fall back to latency-only check
        assert retired >= 256 * measure
    big_latency = big.stats.means["lat.net.req"].mean
    # average request latency must grow with the mesh diameter
    assert big_latency > small_latency


def test_load_sensitivity_circuits_fail_under_heavy_contention():
    """Paper section 5.5: heavy loads cause conflicts that prevent complete
    circuits from being built."""
    light = ScriptedChip(16, Variant.COMPLETE, turnaround=7)
    heavy = ScriptedChip(16, Variant.COMPLETE, turnaround=2000)

    def drive(chip, gap):
        i = 0
        for _round in range(6):
            for src in range(0, 16, 2):
                i += 1
                chip.request(src, 15 - src, addr=0x40 * i)
                chip.run(gap)
        chip.run_until_drained(150000)

    drive(light, gap=60)  # spread out, circuits freed quickly
    drive(heavy, gap=1)  # burst + long-held circuits => many conflicts
    def fail_rate(chip):
        s = chip.stats
        failed = s.counter("circuit.outcome.failed")
        total = s.counter("circuit.replies_total")
        return failed / total if total else 0.0

    assert fail_rate(heavy) > fail_rate(light)


def test_load_sensitivity_timed_circuits_raise_the_threshold():
    """Paper section 5.5 on synthetic request-reply traffic: circuit
    success decays as load grows, and timed circuits, which hold virtual
    channels for less time, build more circuits than untimed ones under
    the heaviest load."""
    def success(variant):
        return [point.circuit_success for point in
                load_sweep((2.0, 40.0), variant, cycles=6000, seed=7)]

    light, heavy = success(Variant.COMPLETE)
    assert light > heavy
    assert success(Variant.TIMED_NOACK)[-1] > heavy


def test_circuit_success_decays_with_mesh_size():
    """Paper sections 5.2 / 5.5 (Fig. 6a vs 6b): complete circuits are
    harder to build on a larger mesh, timed circuits decay no faster, and
    reply latency grows with distance."""
    small, big = mesh_scaling_sweep((4, 8), Variant.COMPLETE_NOACK)
    [timed] = mesh_scaling_sweep((8,), Variant.SLACKDELAY1_NOACK)
    assert small.circuit_success > big.circuit_success
    assert timed.circuit_success >= big.circuit_success - 0.02
    assert big.mean_reply_latency > small.mean_reply_latency


def test_partitioning_recovers_circuit_success():
    """Paper section 5.5: the same four programs on a 64-core chip build
    more circuits, over shorter paths, as four Hardwall-style 16-core
    partitions than monolithically."""
    apps = [workload_by_name(name) for name in
            ("blackscholes", "fluidanimate", "water_spatial", "swaptions")]
    config = SystemConfig(n_cores=64).with_variant(Variant.COMPLETE_NOACK)
    rng = Random(7)
    mono = CmpSystem(config, streams=[
        AccessStream(apps[core // 16].params, core, 64,
                     Random(rng.getrandbits(64))) for core in range(64)])
    part = build_partitioned_system(config, quadrants(Mesh(8), apps))

    def success(system):
        system.warmup(250)
        system.run_instructions(900)
        s = system.stats
        return (s.counter("circuit.outcome.on_circuit")
                / max(1, s.counter("circuit.replies_total")))

    assert success(part) > success(mono)
    assert part.stats.mean("lat.net.crep") < mono.stats.mean("lat.net.crep")
