"""Functional prewarm is frozen against a committed golden.

``tests/golden/prewarm_state.json`` was generated from the code *before*
the cache arrays were compacted and the prewarm's L2 tail became a bulk
fill per bank that builds no line, so it pins the steady state every
measured run starts from: which way each line landed in, who owns it,
who shares it, every set's PLRU bits, and how far the ``prewarm`` RNG
stream was drawn.  A line the fill left unbuilt digests as the
``DirLine()`` it stands for.

Regenerate (only when the prewarm's *intended* result changes) with
``PYTHONPATH=src python tests/test_prewarm_golden.py``.
"""

import hashlib
import json
import os

import pytest

from repro import build_system, workload_by_name
from repro.cpu.tracefile import FileTraceWorkload, capture_workload
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.rng import DeterministicRng

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "prewarm_state.json")

#: Sets overflow in both levels: every ``False`` return of the two
#: ``prewarm_line``s, holes in the L1 fill, and the hand-over to the
#: L2-only tail part-way through the mid region all occur.
_SHRUNKEN = CacheConfig(l1_size_bytes=8 * 1024, l2_bank_size_bytes=48 * 1024)


def _trace_workload(tmp_path):
    path = os.path.join(str(tmp_path), "canneal.trace")
    capture_workload(workload_by_name("canneal"), 16, 64,
                     DeterministicRng(1).stream("capture"),
                     accesses_per_core=40, path=path)
    return FileTraceWorkload(path)


CASES = {
    "cmp16_canneal": lambda tmp: (
        SystemConfig(n_cores=16, seed=1), workload_by_name("canneal")),
    "cmp64_fft": lambda tmp: (
        SystemConfig(n_cores=64, seed=1), workload_by_name("fft")),
    "overflow16_swaptions": lambda tmp: (
        SystemConfig(n_cores=16, seed=1, cache=_SHRUNKEN),
        workload_by_name("swaptions")),
    # Replayed traces carry no region metadata: prewarm installs nothing
    # and draws nothing.
    "trace16": lambda tmp: (
        SystemConfig(n_cores=16, seed=1), _trace_workload(tmp)),
}


def _array_digest(array, describe):
    """Digest of one cache array: per set its PLRU bits, then every
    resident ``(addr, way, *describe(line))`` in way order.  ``items()``
    stores nothing, so digesting leaves default lines unbuilt."""
    rows = [[] for _ in range(array.sets)]
    for addr, line in array.items():
        rows[array.set_index(addr)].append(
            (addr, array.way_of(addr)) + describe(line))
    sha = hashlib.sha256()
    for index, row in enumerate(rows):
        sha.update(repr((index, array._plru[index], row)).encode())
    return sha.hexdigest()[:16]


def cache_state(system) -> dict:
    """Digest of every cache and directory array of ``system``."""
    return {
        "l2": [
            _array_digest(tile.l2.array, lambda line: (
                line.owner, sorted(line.sharers or ()), line.dirty, line.busy))
            for tile in system.tiles
        ],
        "l1": [
            _array_digest(tile.l1.array, lambda line: (line.state.value,))
            for tile in system.tiles
        ],
        "l2_lines": sum(t.l2.array.occupancy() for t in system.tiles),
        "l1_lines": sum(t.l1.array.occupancy() for t in system.tiles),
    }


def prewarm_state(system) -> dict:
    """Run ``functional_prewarm`` and digest what it left behind."""
    drawn = {}
    make_stream = system.rng.stream

    def stream(name):
        drawn[name] = make_stream(name)
        return drawn[name]

    system.rng.stream = stream
    try:
        system.functional_prewarm()
    finally:
        del system.rng.stream
    assert list(drawn) == ["prewarm"]
    return dict(cache_state(system), rng=hashlib.sha256(
        repr(drawn["prewarm"].getstate()).encode()).hexdigest()[:16])


@pytest.mark.parametrize("case", sorted(CASES))
def test_prewarm_reproduces_golden(case, tmp_path):
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    config, workload = CASES[case](tmp_path)
    assert prewarm_state(build_system(config, workload)) == golden[case]


def _built_l2_lines(system) -> int:
    return sum(1 for tile in system.tiles
               for _ in tile.l2.array.items(defaults=False))


def test_prewarm_builds_only_owned_and_shared_lines():
    """Count tripwire (deterministic, so CI can gate what an RSS reading
    cannot): of the 135 168 L2 lines the 16-core canneal prewarm makes
    resident, only the owned (16 x 512, one per L1 line) and pre-shared
    (1 024) ones exist as ``DirLine`` objects; the L2-only tail is
    addresses.  A run at the benchmark's quanta builds the few hundred it
    touches.  A change that builds lines in bulk again fails here."""
    with open(GOLDEN) as handle:
        golden = json.load(handle)["cmp16_canneal"]
    system = build_system(*CASES["cmp16_canneal"](None))
    system.functional_prewarm()
    assert sum(t.l2.array.occupancy()
               for t in system.tiles) == golden["l2_lines"] == 135168
    assert _built_l2_lines(system) == golden["l1_lines"] + 1024 == 9216

    system = build_system(*CASES["cmp16_canneal"](None))
    system.run_script(warmup_instructions=400, measure_instructions=1500)
    assert 9216 < _built_l2_lines(system) <= 9216 + 600  # 9 601 today


def test_golden_cases_are_distinct_and_non_trivial():
    """The golden would be worthless if the cases collapsed: the trace
    case must be empty, the others full, the overflow case short of what
    its streams asked for."""
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    assert golden["trace16"]["l2_lines"] == golden["trace16"]["l1_lines"] == 0
    assert golden["cmp16_canneal"]["l1_lines"] == 16 * 512
    assert golden["cmp64_fft"]["l1_lines"] == 64 * 512
    overflow = golden["overflow16_swaptions"]
    assert overflow["l2_lines"] == 16 * 768  # every bank full
    assert overflow["l2_lines"] < 16 * (80 + 1024) + 64
    assert len({case["rng"] for case in golden.values()}) == len(golden)


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        state = {
            case: prewarm_state(build_system(*make(tmp)))
            for case, make in sorted(CASES.items())
        }
    with open(GOLDEN, "w") as handle:
        json.dump(state, handle, indent=1, sort_keys=True)
        handle.write("\n")
