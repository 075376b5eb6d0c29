"""Shard snapshots: determinism round-trips and format integrity.

A snapshot must be exactly three things: *complete* (restoring it and
continuing yields the same statistics, histograms, and finish cycle as
the uninterrupted run, bit for bit), *honest* (any damaged, truncated,
stale, or foreign file is rejected with a typed error naming the exact
mismatch, never silently reinterpreted), and *invisible* (a run that
writes snapshots is bit-identical to one that does not).  These tests
pin all three, across protocol variants, on the path a respawned shard
worker takes: :func:`read_checkpoint` + :func:`restore_system`, then
:func:`repro.system.run_phases` re-entered where the snapshot stood.
"""

import json
import os
import shutil
import struct
import tempfile
from functools import partial

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cpu.workloads import workload_by_name
from repro.sim.checkpoint import (
    MAGIC,
    SCHEMA_VERSION,
    CheckpointError,
    CorruptCheckpointError,
    IncompatibleCheckpointError,
    UnpicklableStateError,
    capture_system,
    dumps_state,
    fingerprint,
    read_checkpoint,
    restore_system,
    write_checkpoint,
)
from repro.sim.config import SystemConfig, Variant, small_test_config
from repro.system import PHASES, CmpSystem, arm_phase, new_run_state, \
    run_phases

WARMUP = 80
MEASURE = 250
INTERVAL = 600  # snapshot every ~600 cycles: several per phase at this size


def _build(variant):
    return CmpSystem(small_test_config(16, variant, seed=3),
                     workload_by_name("canneal"))


def _snapshotting(system, directory, config_hash, history):
    """``run_phases``' ``execute`` that, like a shard worker at its
    barriers, writes a snapshot about every ``INTERVAL`` cycles: it stops
    ``run_until`` on one of the phase's check boundaries, snapshots, and
    starts it again from there - which is what a restored run does."""
    sim = system.sim

    def execute(phase, run_state, resumed):
        done = partial(system.phase_done, phase, system.cores)
        ci = run_state["ci"]
        step = -(-INTERVAL // ci) * ci
        while True:
            stop = sim.cycle + step
            sim.run_until(lambda: done() or sim.cycle >= stop,
                          run_state["deadline"] - sim.cycle, ci)
            if done():
                system.stats.flush()
                return
            path = os.path.join(directory, f"run.ckpt.{len(history):03d}")
            write_checkpoint(
                path, capture_system(system, dict(run_state, cycle=sim.cycle)),
                kind="shard", config_hash=config_hash, cycle=sim.cycle)
            history.append(path)

    return execute


def _restore(path, config_hash):
    """What a respawned shard worker does with its snapshot file."""
    _header, payload = read_checkpoint(path, kind="shard",
                                       config_hash=config_hash)
    return restore_system(payload)


class _Run:
    """One reference + snapshotting run, with its snapshot history."""

    def __init__(self, variant):
        system = _build(variant)
        system.warmup(WARMUP)
        self.start = system.sim.cycle
        self.finish = system.run_instructions(MEASURE)
        self.end = system.sim.cycle
        self.stats = system.stats.snapshot()

        self.config_hash = fingerprint(variant.value)
        self.directory = tempfile.mkdtemp(prefix="repro-ckpt-test-")
        self.history = []
        system = _build(variant)
        start, finish = run_phases(
            system, new_run_state(WARMUP, MEASURE),
            _snapshotting(system, self.directory, self.config_hash,
                          self.history),
            system.cores)
        # Writing snapshots must not perturb the run itself.
        assert (start, finish) == (self.start, self.finish)
        assert system.sim.cycle == self.end
        assert system.stats.snapshot() == self.stats
        assert len(self.history) >= 3, "interval too coarse for this test"


_RUNS = {}


def _run_for(variant):
    if variant not in _RUNS:
        _RUNS[variant] = _Run(variant)
    return _RUNS[variant]


@pytest.fixture(scope="module", autouse=True)
def _cleanup_run_dirs():
    yield
    for run in _RUNS.values():
        shutil.rmtree(run.directory, ignore_errors=True)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    variant=st.sampled_from([Variant.BASELINE, Variant.REUSE_NOACK,
                             Variant.COMPLETE]),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
@example(variant=Variant.REUSE_NOACK, fraction=0.0)
@example(variant=Variant.REUSE_NOACK, fraction=1.0)
@example(variant=Variant.BASELINE, fraction=0.5)
def test_resume_is_bit_identical(variant, fraction):
    """Restoring any mid-run snapshot replays to the same result."""
    run = _run_for(variant)
    pick = min(int(fraction * len(run.history)), len(run.history) - 1)
    data = _restore(run.history[pick], run.config_hash)
    system = data["system"]
    start, finish = run_phases(system, data["run"], system.run_phase,
                               system.cores)
    assert (start, finish) == (run.start, run.finish)
    assert system.sim.cycle == run.end
    assert system.stats.snapshot() == run.stats


def _directory_lines(system):
    """(resident, built) L2 lines: the rest are default lines an array
    holds as an address and an empty slot."""
    arrays = [tile.l2.array for tile in system.tiles]
    return (sum(array.occupancy() for array in arrays),
            sum(1 for array in arrays for _ in array.items(defaults=False)))


def test_capture_right_after_prewarm_resumes_identically():
    """The snapshot with the most unbuilt lines in it: "not built yet" is
    an empty slot, so it survives pickling as itself, and the restored
    run builds the same lines the uninterrupted one did."""
    run = _run_for(Variant.REUSE_NOACK)
    system = _build(Variant.REUSE_NOACK)
    run_state = new_run_state(WARMUP, MEASURE)
    system.functional_prewarm()
    arm_phase(system, run_state, PHASES["warmup"], system.cores, WARMUP)
    before = _directory_lines(system)
    assert 0 < before[1] < before[0] // 4
    data = restore_system(
        capture_system(system, dict(run_state, cycle=system.sim.cycle)))
    restored = data["system"]
    assert _directory_lines(restored) == before
    assert run_phases(restored, data["run"], restored.run_phase,
                      restored.cores) == (run.start, run.finish)
    assert restored.sim.cycle == run.end
    assert restored.stats.snapshot() == run.stats
    run_phases(system, run_state, system.run_phase,
               system.cores)  # the uninterrupted twin
    assert _directory_lines(restored) == _directory_lines(system)


def test_prewarmed_snapshot_stays_small():
    """Deterministic size tripwire: a snapshot of the prewarmed 16-core
    canneal chip (the ``cmp16_canneal`` golden config) pickles 135 168
    resident L2 lines; 7.9 MB when each was a ``DirLine``, 2.0 MB as
    addresses.  A change that builds lines in bulk again fails here."""
    system = CmpSystem(SystemConfig(n_cores=16, seed=1),
                       workload_by_name("canneal"))
    system.functional_prewarm()
    assert len(dumps_state(system)) <= 3_500_000


# -- file format: every damage mode has a typed rejection ---------------

@pytest.fixture
def ckpt(tmp_path):
    path = str(tmp_path / "x.ckpt")
    write_checkpoint(path, b"payload-bytes", kind="run",
                     config_hash="cafe", cycle=42)
    return path


def test_read_back_round_trip(ckpt):
    header, payload = read_checkpoint(ckpt, kind="run", config_hash="cafe")
    assert payload == b"payload-bytes"
    assert header["schema"] == SCHEMA_VERSION
    assert header["cycle"] == 42


def test_bad_magic_is_corrupt(ckpt):
    raw = open(ckpt, "rb").read()
    with open(ckpt, "wb") as fh:
        fh.write(b"NOTACKPT" + raw[len(MAGIC):])
    with pytest.raises(CorruptCheckpointError, match="magic"):
        read_checkpoint(ckpt)


def test_empty_file_is_corrupt(ckpt):
    open(ckpt, "wb").close()
    with pytest.raises(CorruptCheckpointError):
        read_checkpoint(ckpt)


def test_truncated_payload_is_corrupt(ckpt):
    raw = open(ckpt, "rb").read()
    with open(ckpt, "wb") as fh:
        fh.write(raw[:-4])
    with pytest.raises(CorruptCheckpointError, match="truncated"):
        read_checkpoint(ckpt)


def test_payload_bitflip_fails_checksum(ckpt):
    raw = bytearray(open(ckpt, "rb").read())
    raw[-1] ^= 0x40
    with open(ckpt, "wb") as fh:
        fh.write(bytes(raw))
    with pytest.raises(CorruptCheckpointError, match="checksum"):
        read_checkpoint(ckpt)


def _rewrite_header(path, **overrides):
    raw = open(path, "rb").read()
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    header_end = len(MAGIC) + 4 + header_len
    header = json.loads(raw[len(MAGIC) + 4:header_end])
    header.update(overrides)
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(blob)) + blob
                 + raw[header_end:])


def test_future_schema_is_incompatible(ckpt):
    _rewrite_header(ckpt, schema=SCHEMA_VERSION + 1)
    with pytest.raises(IncompatibleCheckpointError, match="schema"):
        read_checkpoint(ckpt)


def test_schema_2_file_is_refused_before_unpickling(tmp_path):
    """Schema 2 pickled ``CacheSet``/``PseudoLruTree`` objects this build
    no longer has: resuming from such a file must fail typed at the
    header, never as an ``AttributeError`` out of the unpickler (the
    payload here would not even unpickle)."""
    path = str(tmp_path / "x.ckpt")
    write_checkpoint(path, b"payload-bytes", kind="shard",
                     config_hash="cafe", cycle=42)
    _rewrite_header(path, schema=2)
    with pytest.raises(IncompatibleCheckpointError, match="schema 2"):
        _restore(path, "cafe")


def test_schema_3_file_is_refused_before_unpickling(tmp_path):
    """Schema 3 arrays carry an ``addr -> way`` dict and a line object in
    every resident way; unpickled into this build they would read as
    arrays whose occupancy is 0.  Refused typed at the header, like 2."""
    path = str(tmp_path / "x.ckpt")
    write_checkpoint(path, b"payload-bytes", kind="shard",
                     config_hash="cafe", cycle=42)
    _rewrite_header(path, schema=3)
    with pytest.raises(IncompatibleCheckpointError, match="schema 3"):
        _restore(path, "cafe")


def test_schema_4_file_is_refused_before_unpickling(tmp_path):
    """Every retired schema from 4 on pickled a class or field this build
    no longer has: 4 a ``SystemConfig`` with a ``sim`` field (and the
    ``SimConfig`` class behind it), 5 a ``NocConfig`` with a pipeline
    switch and, with the switch off, the deleted second router / NI
    classes, 6 one kernel slot per router and the router-bound link
    queues the router core's calendar replaced, 7 the links toward the
    NIs and one kernel slot per NI, 8 a circuit table and a wait queue
    on every router input unit, 9 cache arrays as per-set lists of
    addresses and lines.  Each is refused typed at the header, like 2
    and 3."""
    assert SCHEMA_VERSION > 4
    for schema in range(4, SCHEMA_VERSION):
        path = str(tmp_path / f"{schema}.ckpt")
        write_checkpoint(path, b"payload-bytes", kind="shard",
                         config_hash="cafe", cycle=42)
        _rewrite_header(path, schema=schema)
        with pytest.raises(IncompatibleCheckpointError,
                           match=f"schema {schema}"):
            _restore(path, "cafe")


def test_wrong_kind_is_incompatible(ckpt):
    with pytest.raises(IncompatibleCheckpointError, match="'shard'"):
        read_checkpoint(ckpt, kind="shard")


def test_foreign_config_is_incompatible(ckpt):
    with pytest.raises(IncompatibleCheckpointError, match="configuration"):
        read_checkpoint(ckpt, kind="run", config_hash="deadbeef")


def test_missing_file_is_a_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        read_checkpoint(str(tmp_path / "nope.ckpt"))


def test_unknown_closure_is_named_not_silently_dropped():
    with pytest.raises(UnpicklableStateError, match="lambda"):
        dumps_state({"callback": lambda: None})
