"""System assembly details not covered elsewhere."""

import pytest

from repro import SystemConfig, Variant, build_system, workload_by_name
from repro.config import ConfigError
from repro.noc.topology import Mesh, memory_controller_nodes
from repro.sim.config import small_test_config
from repro.sim.kernel import DeadlockError


def test_memory_controllers_placed_on_designated_tiles():
    system = build_system(SystemConfig(n_cores=16))
    with_mc = [tile.node for tile in system.tiles if tile.mc is not None]
    assert sorted(with_mc) == sorted(system.mc_nodes)
    assert len(with_mc) == 4


def test_home_mapping_interleaves_all_banks():
    system = build_system(SystemConfig(n_cores=16))
    homes = {system.home_of(block * 64) for block in range(64)}
    assert homes == set(range(16))


def test_mc_mapping_targets_only_mc_nodes():
    system = build_system(SystemConfig(n_cores=16))
    for block in range(64):
        assert system.mc_of(block * 64) in system.mc_nodes


def test_system_without_workload_has_no_cores():
    system = build_system(SystemConfig(n_cores=16))
    assert system.cores == []
    system.run_cycles(50)  # idles without deadlock


def test_run_instructions_accumulates():
    cfg = small_test_config(16, Variant.BASELINE)
    system = build_system(cfg, workload_by_name("water_spatial"))
    first = system.run_instructions(100, max_cycles=500_000)
    second = system.run_instructions(100, max_cycles=500_000)
    assert second > first
    assert system.total_retired() >= 16 * 200


def test_run_instructions_timeout_raises():
    cfg = small_test_config(16, Variant.BASELINE)
    system = build_system(cfg, workload_by_name("canneal"))
    with pytest.raises(DeadlockError):
        system.run_instructions(10_000_000, max_cycles=2_000)


@pytest.mark.parametrize("workload,method,args,setting", [
    ("canneal", "run_script", (0, 0), "measure_instructions"),
    ("canneal", "run_instructions", (0,), "per_core"),
    (None, "run_script", (0, 10), "workload"),
    (None, "run_instructions", (10,), "workload"),
])
def test_a_run_no_core_would_measure_fails_typed(workload, method, args,
                                                 setting):
    """No core would record a finish cycle (a target of 0, or no cores):
    the run is refused, naming the cause, before a cycle is simulated."""
    system = build_system(SystemConfig(n_cores=16),
                          workload and workload_by_name(workload))
    with pytest.raises(ConfigError, match="no core") as err:
        getattr(system, method)(*args)
    assert err.value.setting == setting
    assert system.sim.cycle == 0


def test_64_core_system_builds_and_steps():
    system = build_system(SystemConfig(n_cores=64),
                          workload_by_name("water_spatial"))
    assert len(system.tiles) == 64
    assert len(system.mc_nodes) == 4
    system.functional_prewarm()
    system.run_cycles(300)
    assert system.total_retired() > 0


# -- the watchdog's progress probe ---------------------------------------

def _instrumented_run(check_at_boundaries: bool):
    """A short 16-core warm-up + measure run with counters on the probe,
    the end-of-phase check and every registered counter flusher."""
    system = build_system(small_test_config(16, Variant.COMPLETE_NOACK),
                          workload_by_name("canneal"))
    calls = {"probe": 0, "boundary": 0, "flusher": 0}

    def counted(name, fn, before=None):
        def wrapper(*args):
            calls[name] += 1
            if before is not None:
                before()
            return fn(*args)
        return wrapper

    def contract():
        assert system._progress() == (
            system.total_retired()
            + system.stats.counter("noc.msgs_delivered"))

    stats = system.stats
    stats._flushers[:] = [counted("flusher", f) for f in stats._flushers]
    system._progress = counted("probe", system._progress)
    system.phase_done = counted(
        "boundary", system.phase_done,
        before=contract if check_at_boundaries else None)
    system.run_script(warmup_instructions=150, measure_instructions=300)
    return system, calls


def test_progress_probe_equals_the_flushed_count_at_every_boundary():
    system, calls = _instrumented_run(check_at_boundaries=True)
    assert calls["boundary"] > 20
    assert system.stats.counter("noc.msgs_delivered") > 0


def test_per_cycle_hooks_do_not_flush_the_counter_batchers():
    """Tripwire (counts only, no wall clock): the watchdog probes on every
    stepped cycle, so a read-style ``Stats`` call there flushes every
    router-core/policy batcher per cycle and undoes the batching.  Flushes
    may scale with check boundaries, never with stepped cycles."""
    system, calls = _instrumented_run(check_at_boundaries=False)
    n_flushers = len(system.stats._flushers)
    assert n_flushers == 2  # the router core and the circuit policy
    # The probe really is the hot one here ...
    assert calls["probe"] > 4 * calls["boundary"]
    # ... and flushing is not tied to it: today a handful of rounds per
    # run (end-of-phase flushes, the stats reset), at most one per check.
    assert calls["flusher"] <= n_flushers * (calls["boundary"] + 8)
