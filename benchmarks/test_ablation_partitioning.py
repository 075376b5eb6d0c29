"""Partitioning ablation (paper section 5.5 / conclusions).

"In a partitioned system, Reactive Circuits could be used independently
inside each partition, thus eliminating concerns about the need to scale
to a larger number of cores."

We run the same application mix on a 64-core chip monolithically and as
four Hardwall-style 16-core partitions, and verify partitioning recovers
a higher circuit success rate (shorter paths, fewer conflicts).
"""

from random import Random

from repro.config import resolve
from repro.cpu.trace import AccessStream
from repro.cpu.workloads import workload_by_name
from repro.noc.topology import Mesh
from repro.partition import build_partitioned_system, quadrants
from repro.sim.config import SystemConfig, Variant
from repro.system import CmpSystem

APPS = ["blackscholes", "fluidanimate", "water_spatial", "swaptions"]


def _success(system) -> float:
    s = system.stats
    total = s.counter("circuit.replies_total")
    return s.counter("circuit.outcome.on_circuit") / max(1, total)


def _quanta():
    factor = resolve("scale")
    return max(100, int(250 * factor)), max(300, int(900 * factor))


def _monolithic():
    config = SystemConfig(n_cores=64).with_variant(Variant.COMPLETE_NOACK)
    rng = Random(7)
    streams = [
        AccessStream(workload_by_name(APPS[core // 16]).params, core, 64,
                     Random(rng.getrandbits(64)))
        for core in range(64)
    ]
    system = CmpSystem(config, streams=streams)
    warm, measure = _quanta()
    system.warmup(warm)
    system.run_instructions(measure)
    return system


def _partitioned():
    config = SystemConfig(n_cores=64).with_variant(Variant.COMPLETE_NOACK)
    parts = quadrants(Mesh(8), [workload_by_name(a) for a in APPS])
    system = build_partitioned_system(config, parts)
    warm, measure = _quanta()
    system.warmup(warm)
    system.run_instructions(measure)
    return system


def test_ablation_partitioning(benchmark):
    def sweep():
        return _monolithic(), _partitioned()

    mono, part = benchmark.pedantic(sweep, rounds=1, iterations=1)
    mono_rate, part_rate = _success(mono), _success(part)
    print(f"\n  monolithic 64-core: circuit success {100 * mono_rate:5.1f}%")
    print(f"  4x16 partitions:    circuit success {100 * part_rate:5.1f}%")
    assert part_rate > mono_rate
    # partitioned replies also travel shorter distances on average
    assert (part.stats.mean("lat.net.crep")
            < mono.stats.mean("lat.net.crep"))
