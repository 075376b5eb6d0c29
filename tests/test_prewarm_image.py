"""The one-slot prewarm image: a restore is the computed prewarm.

``repro.system.prewarm`` computes ``functional_prewarm`` once per
program and restores its image into every later system with the same
``prewarm_key``.  These tests pin that a restore leaves exactly the
committed golden state (``tests/golden/prewarm_state.json``) for every
variant, that it shares no object with the image, that systems which
differ in anything the prewarm reads never restore each other's image,
and that serial batches run one prewarm group after another.
"""

import json
import tracemalloc

import pytest

from repro import api, build_system, workload_by_name
from repro import system as system_mod
from repro.coherence.l1 import L1State
from repro.coherence.l2dir import DirLine
from repro.harness import experiment
from repro.harness.experiment import RunSpec
from repro.sim.config import CacheConfig, NocConfig, SystemConfig, Variant
from repro.sim.rng import DeterministicRng
from repro.system import CmpSystem, prewarm

from tests.test_prewarm_golden import _SHRUNKEN, CASES, GOLDEN, cache_state


@pytest.fixture
def computes(monkeypatch):
    """An empty slot for the test (the old one is put back after it), and
    the list of systems ``functional_prewarm`` ran on."""
    monkeypatch.setattr(system_mod, "_prewarm_slot", None)
    ran = []
    compute = CmpSystem.functional_prewarm

    def counted(system):
        ran.append(system)
        compute(system)

    monkeypatch.setattr(CmpSystem, "functional_prewarm", counted)
    return ran


def _golden(case) -> dict:
    with open(GOLDEN) as handle:
        state = json.load(handle)[case]
    del state["rng"]  # a restore draws nothing; the compute drew this
    return state


def _fields(line) -> tuple:
    """A line's fields, a sharer set as a list: its iteration order is
    the order invalidations fan out in, so a restore must keep it."""
    if isinstance(line, DirLine):
        sharers = line.sharers
        return (line.dirty, line.owner,
                None if sharers is None else list(sharers), line.busy)
    return line.pack()


def _raw(system) -> list:
    """Every array's slots, PLRU bits and built lines, compared whole:
    two systems with equal raw state have equal digests and fan out
    invalidations in the same order."""
    return [(bytes(array._addrs), list(array._plru),
             {slot: _fields(line) for slot, line in array._lines.items()})
            for tile in system.tiles
            for array in (tile.l1.array, tile.l2.array)]


def _no_stream_drawn(system) -> list:
    drawn = []
    make_stream = system.rng.stream
    system.rng.stream = lambda name: drawn.append(name) or make_stream(name)
    return drawn


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_variant_restores_the_golden_state(case, tmp_path, computes):
    """The first system computes; every other variant restores.  The
    first restore is digested against the golden, the rest must equal it
    slot for slot (which is the same digest, 15x cheaper)."""
    config, workload = CASES[case](tmp_path)
    reference = None
    for variant in Variant:
        system = build_system(config.with_variant(variant), workload)
        drawn = _no_stream_drawn(system)
        before = len(computes)
        prewarm(system)
        restored = len(computes) == before
        assert drawn == ([] if restored else ["prewarm"])
        if reference is None and (restored or system.prewarm_key is None):
            assert cache_state(system) == _golden(case)
            reference = _raw(system)
        elif reference is not None:
            assert _raw(system) == reference
    # replayed traces have no key and compute every time (placing nothing)
    keyed = system.prewarm_key is not None
    assert len(computes) == (1 if keyed else len(Variant))
    assert keyed == (case != "trace16")


def test_a_restore_shares_no_object_with_the_image(computes):
    """Scribble over a restored system - line fields, sharer sets,
    residency, recency - then restore again: still the golden state."""
    config, workload = CASES["overflow16_swaptions"](None)
    prewarm(build_system(config, workload))
    victim = build_system(config, workload)
    prewarm(victim)
    shared = 0
    for tile in victim.tiles:
        for _, line in tile.l2.array.items(defaults=False):
            line.owner, line.dirty, line.busy = 99, True, True
            if line.sharers is not None:
                line.sharers.add(99)
                shared += 1
        for _, line in tile.l1.array.items():
            line.state = L1State.SHARED
        first, _ = next(tile.l2.array.items())
        tile.l2.array.remove(first)
        tile.l1.array.lookup(next(tile.l1.array.items())[0])
    assert shared  # the sharer sets really were exercised
    again = build_system(config, workload)
    prewarm(again)
    assert len(computes) == 1
    assert cache_state(again) == _golden("overflow16_swaptions")


_BASE = SystemConfig(n_cores=16, seed=1, cache=_SHRUNKEN)


def test_a_restore_keeps_sharer_iteration_order(computes):
    """Sharers 1 and 9 hash to the same slot of a small set, so the set
    iterates them in insertion order; a restored line iterates them in
    the order the imaged line did."""
    workload = workload_by_name("swaptions")
    system = build_system(_BASE, workload)
    system.functional_prewarm()
    orders = []
    for tile in system.tiles:
        for _, line in tile.l2.array.items(defaults=False):
            order = [9, 1] if len(orders) % 2 else [1, 9]
            line.sharers = set()
            for node in order:
                line.add_sharer(node)
            assert list(line.sharers) == order
            orders.append(order)
    assert [9, 1] in orders and [1, 9] in orders
    restored = build_system(_BASE, workload)
    restored.restore_prewarm(system.prewarm_image())
    assert _raw(restored) == _raw(system)

#: One change per input the prewarm reads.
DIFFERENT = {
    "seed": (SystemConfig(n_cores=16, seed=2, cache=_SHRUNKEN), "swaptions"),
    "cache": (SystemConfig(n_cores=16, seed=1, cache=CacheConfig(
        l1_size_bytes=8 * 1024, l2_bank_size_bytes=32 * 1024)), "swaptions"),
    "workload": (_BASE, "blackscholes"),
    "n_cores": (SystemConfig(n_cores=64, seed=1, cache=_SHRUNKEN),
                "swaptions"),
    "topology": (SystemConfig(n_cores=16, seed=1, cache=_SHRUNKEN,
                              noc=NocConfig(topology="cmesh")), "swaptions"),
}


@pytest.mark.parametrize("change", sorted(DIFFERENT))
def test_systems_that_differ_never_restore_each_others_image(change,
                                                             computes):
    config, name = DIFFERENT[change]
    workload = workload_by_name(name)
    base = build_system(_BASE, workload_by_name("swaptions"))
    other = build_system(config, workload)
    assert other.prewarm_key != base.prewarm_key
    fresh = build_system(config, workload)
    fresh.functional_prewarm()
    expected = cache_state(fresh)
    del computes[:]
    for system in (base, other, build_system(_BASE,
                                             workload_by_name("swaptions"))):
        prewarm(system)
    assert computes[:2] == [base, other] and len(computes) == 3
    assert cache_state(other) == expected


def test_custom_streams_or_home_map_always_compute(computes):
    workload = workload_by_name("swaptions")
    keyed = build_system(_BASE, workload)
    prewarm(keyed)
    image = system_mod._prewarm_slot

    def streams():
        rng = DeterministicRng(_BASE.seed).stream("workload/swaptions")
        return workload.streams(16, _BASE.cache.line_bytes, rng)

    makers = [
        lambda: CmpSystem(_BASE, workload, streams=streams()),
        lambda: CmpSystem(_BASE, streams=streams()),
        lambda: CmpSystem(_BASE, workload,
                          home_of=lambda addr: addr // 64 % 16),
    ]
    for make in makers:
        for _ in range(2):
            system = make()
            assert system.prewarm_key is None
            prewarm(system)
            # same streams and the same map: the same state, computed
            assert _raw(system) == _raw(keyed)
    assert len(computes) == 1 + 2 * len(makers)
    assert system_mod._prewarm_slot is image  # untouched


def test_the_slot_holds_exactly_one_image(computes):
    first = build_system(_BASE, workload_by_name("swaptions"))
    second = build_system(_BASE, workload_by_name("blackscholes"))
    prewarm(first)
    prewarm(second)
    key, image = system_mod._prewarm_slot
    assert key == second.prewarm_key
    assert len(image) == len(second.tiles)
    prewarm(build_system(_BASE, workload_by_name("swaptions")))
    assert len(computes) == 3  # the first image was dropped
    assert system_mod._prewarm_slot[0] == first.prewarm_key


def test_the_16_core_canneal_image_is_small(computes):
    """The image holds addresses and PLRU bits as int64 arrays and each
    distinct encoded line once: under 4 MB for 135 168 resident L2 lines
    and 8 192 L1 lines (the per-set lists it replaced took 31 MB)."""
    system = build_system(*CASES["cmp16_canneal"](None))
    system.functional_prewarm()
    tracemalloc.start()
    try:
        image = system.prewarm_image()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert image and size <= 4_000_000


def test_specs_group_by_the_key_their_systems_restore_with():
    """A spec's prewarm group is the ``prewarm_key`` of the system it
    runs: variants share it, a seed or a topology does not."""
    specs = [RunSpec(16, Variant.BASELINE, "canneal", 1),
             RunSpec(16, Variant.FRAGMENTED, "canneal", 1, 500, 200),
             RunSpec(16, Variant.BASELINE, "canneal", 2),
             RunSpec(16, Variant.BASELINE, "canneal", 1, topology="torus")]
    groups = [experiment.prewarm_group(spec) for spec in specs]
    for spec, group in zip(specs, groups):
        system = build_system(experiment.spec_config(spec),
                              workload_by_name(spec.workload))
        assert system.prewarm_key == group
    assert groups[0] == groups[1]
    assert len({groups[0], groups[2], groups[3]}) == 3


_VARIANTS = [Variant.BASELINE, Variant.COMPLETE_NOACK, Variant.FRAGMENTED]
_PROGRAMS = ["swaptions", "blackscholes"]


def _by_key(results) -> dict:
    return {result.spec_key: result for result in results}


def _via_prefetch(specs) -> dict:
    api.prefetch(specs, jobs=1)
    return _by_key(experiment.run_experiment(spec) for spec in specs)


def _via_run_matrix(specs) -> dict:
    out = api.run_matrix(16, _VARIANTS, _PROGRAMS, jobs=1)
    return _by_key(out[spec.variant][spec.workload] for spec in specs)


@pytest.mark.parametrize("compute", [
    lambda specs: experiment.run_specs(specs, jobs=1),
    lambda specs: _by_key(api.results(api.submit(specs, jobs=1))),
    _via_prefetch,
    _via_run_matrix,
], ids=["run_specs", "submit", "prefetch", "run_matrix"])
def test_serial_variant_major_batch_prewarms_once_per_program(
        monkeypatch, computes, compute):
    """2 programs x 3 variants, variant-major: every serial entry point
    runs the programs' groups back to back, so two prewarms, and returns
    the same results, in the same order, as one compute per run."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SERVICE", raising=False)
    # run_matrix runs the default quanta: at this scale they are the
    # 200 / 100 instructions the specs name.
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    specs = [RunSpec(16, variant, workload, 1, 200, 100)
             for variant in _VARIANTS for workload in _PROGRAMS]
    with experiment.fresh_memo():
        grouped = compute(specs)
    assert len(computes) == 2
    assert list(grouped) == [spec.scaled().key() for spec in specs]
    for spec in specs:
        monkeypatch.setattr(system_mod, "_prewarm_slot", None)
        with experiment.fresh_memo():
            alone = experiment.run_experiment(spec)
        assert grouped[alone.spec_key].to_json() == alone.to_json()
    assert len(computes) == 2 + len(specs)


def test_serial_cli_prefetch_prewarms_once_per_program(monkeypatch,
                                                        computes, capsys):
    from repro.harness.__main__ import main

    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    monkeypatch.setattr("repro.harness.__main__.default_workloads",
                        lambda full=None: ["swaptions", "blackscholes"])
    with experiment.fresh_memo():
        assert main(["fig10", "--jobs", "1"]) == 0  # 2 variants
    assert len(computes) == 2
    assert "swaptions" in capsys.readouterr().out


def test_a_serial_reproduction_prewarms_once_per_program(monkeypatch,
                                                          tmp_path):
    """``tools/run_reproduction.py``, serial, with the simulator stubbed
    out: its 200 runs fall in 28 prewarm groups (16 and 64 cores x the
    programs) and run one group after another, so a real sweep would
    prewarm 28 times, not once per run of a variant-major assembly."""
    import importlib.util
    import os

    from repro.sim.stats import Stats

    for var in ("REPRO_CACHE", "REPRO_JOBS", "REPRO_SERVICE", "REPRO_FULL"):
        monkeypatch.delenv(var, raising=False)
    groups = []

    def stub(spec, key, config):
        groups.append(experiment.prewarm_group(spec))
        return Stats(), 0, 1000

    monkeypatch.setattr(experiment, "_run_local", stub)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                        "run_reproduction.py")
    spec = importlib.util.spec_from_file_location("run_reproduction", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with experiment.fresh_memo():
        assert tool.main([str(tmp_path / "report.txt")]) == 0
    changes = sum(1 for i, group in enumerate(groups)
                  if i == 0 or group != groups[i - 1])
    assert len(groups) == 200
    assert changes == len(set(groups)) == 28
