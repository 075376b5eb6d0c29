"""Ablation benches for the design choices DESIGN.md calls out."""

from repro import build_system, workload_by_name
from repro.config import resolve
from repro.sim.config import CircuitConfig, CircuitMode, SystemConfig, Variant


def _run(circuit: CircuitConfig, cores: int, workload: str,
         instrs: int = 1200, warm: int = 300):
    factor = resolve("scale")
    config = SystemConfig(n_cores=cores, seed=1).with_circuit(circuit)
    system = build_system(config, workload_by_name(workload))
    system.warmup(max(100, int(warm * factor)))
    start = system.sim.cycle
    cycles = system.run_instructions(max(200, int(instrs * factor))) - start
    return system, cycles


def test_ablation_circuits_per_input(benchmark, cores):
    """Justify the paper's choice of 5 circuits per input port: going from
    1 to 5 entries recovers failed reservations; beyond that the returns
    vanish (Table 5: the 5th entry serves only ~6 % of reservations)."""

    def sweep():
        results = {}
        for capacity in (1, 2, 5, 8):
            circuit = CircuitConfig(mode=CircuitMode.COMPLETE, no_ack=True,
                                    max_circuits_per_input=capacity)
            system, cycles = _run(circuit, cores, "canneal")
            s = system.stats
            total = (s.counter("circuit.reservations")
                     + s.counter("circuit.reservation_failed"))
            fail = s.counter("circuit.reservation_failed") / max(1, total)
            results[capacity] = (fail, cycles)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for capacity, (fail, cycles) in results.items():
        print(f"  capacity {capacity}: failed reservations "
              f"{100 * fail:5.1f}%  exec {cycles} cycles")
    assert results[1][0] > results[5][0]  # more storage, fewer failures
    assert results[5][0] - results[8][0] < results[1][0] - results[5][0]


def test_ablation_undo_on_l2_miss(benchmark, cores):
    """Section 4.4: the paper keeps circuits built across L2 misses because
    undoing them measured worse.  Undoing must produce 'undone' replies and
    must not beat keep-built."""

    def sweep():
        keep, keep_cycles = _run(
            CircuitConfig(mode=CircuitMode.COMPLETE, no_ack=True),
            cores, "fft")
        undo, undo_cycles = _run(
            CircuitConfig(mode=CircuitMode.COMPLETE, no_ack=True,
                          undo_on_l2_miss=True),
            cores, "fft")
        return (keep, keep_cycles), (undo, undo_cycles)

    (keep, keep_cycles), (undo, undo_cycles) = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    print(f"\n  keep-built: {keep_cycles} cycles; undo-on-miss: "
          f"{undo_cycles} cycles")
    assert undo.stats.counter("circuit.origin_cancelled") > 0
    assert (undo.stats.counter("circuit.outcome.undone")
            >= keep.stats.counter("circuit.outcome.undone"))
    # keep-built is at least as fast (the paper's finding), within noise
    assert keep_cycles <= undo_cycles * 1.05


def test_ablation_simulator_throughput(benchmark, cores):
    """Raw simulator speed: cycles per second on the headline config."""
    config = SystemConfig(n_cores=cores).with_variant(Variant.COMPLETE_NOACK)
    system = build_system(config, workload_by_name("canneal"))
    system.functional_prewarm()

    def run_chunk():
        system.run_cycles(2_000)

    benchmark.pedantic(run_chunk, rounds=3, iterations=1)
    assert system.sim.cycle >= 6_000
