"""Trace file recording and replay."""

import pytest

from repro import build_system, workload_by_name
from repro.cpu.tracefile import (
    FileTraceWorkload,
    TraceFileError,
    TraceFileStream,
    TraceRecorder,
    capture_workload,
)
from repro.sim.config import Variant, small_test_config
from repro.sim.rng import DeterministicRng


def test_recorder_roundtrip(tmp_path):
    recorder = TraceRecorder(n_cores=2, line_bytes=64)
    recorder.record(0, (3, False, 0x1000))
    recorder.record(0, (0, True, 0x2000))
    recorder.record(1, (5, False, 0x3000))
    path = tmp_path / "t.trace"
    recorder.write(path)
    workload = FileTraceWorkload(path)
    assert workload.n_cores == 2
    streams = workload.streams(2, 64, None)
    assert streams[0].next_access() == (3, False, 0x1000)
    assert streams[0].next_access() == (0, True, 0x2000)
    assert streams[1].next_access() == (5, False, 0x3000)


def test_stream_loops_when_exhausted():
    stream = TraceFileStream([(1, False, 0x40), (2, True, 0x80)], core=0)
    assert stream.next_access() == (1, False, 0x40)
    assert stream.next_access() == (2, True, 0x80)
    assert stream.next_access() == (1, False, 0x40)
    assert stream.wraps == 1


def test_empty_core_rejected():
    with pytest.raises(TraceFileError):
        TraceFileStream([], core=0)


def test_capture_workload_and_replay(tmp_path):
    path = tmp_path / "canneal.trace"
    rng = DeterministicRng(1).stream("capture")
    capture_workload(workload_by_name("canneal"), 16, 64, rng,
                     accesses_per_core=50, path=path)
    workload = FileTraceWorkload(path, name="canneal-trace")
    assert workload.name == "canneal-trace"
    streams = workload.streams(16, 64, None)
    assert len(streams) == 16
    for stream in streams:
        gap, is_write, addr = stream.next_access()
        assert gap >= 0 and addr % 64 == 0


def test_core_count_mismatch(tmp_path):
    recorder = TraceRecorder(4, 64)
    recorder.record(0, (0, False, 0x40))
    path = tmp_path / "t.trace"
    recorder.write(path)
    workload = FileTraceWorkload(path)
    with pytest.raises(TraceFileError):
        workload.streams(16, 64, None)
    with pytest.raises(TraceFileError):
        workload.streams(4, 32, None)


def test_malformed_files_rejected(tmp_path):
    cases = {
        "no_header.trace": "0 1 r 40\n",
        "bad_fields.trace": "# repro-trace v1 cores=1 line=64\n0 1 r\n",
        "bad_rw.trace": "# repro-trace v1 cores=1 line=64\n0 1 x 40\n",
        "bad_core.trace": "# repro-trace v1 cores=1 line=64\n7 1 r 40\n",
        "bad_int.trace": "# repro-trace v1 cores=1 line=64\n0 q r 40\n",
    }
    for name, body in cases.items():
        path = tmp_path / name
        path.write_text(body)
        with pytest.raises(TraceFileError):
            FileTraceWorkload(path)


HEADER = "# repro-trace v1 cores=2 line=64\n"


@pytest.mark.parametrize("body,lineno,reason", [
    (HEADER + "0 1 r 40\n-1 1 r 80\n", 3, "negative field"),
    (HEADER + "0 1 r 40\n1 1 w 8000000000000000\n", 3, "63 bits"),
    ("# repro-trace v1 cores=0 line=64\n0 1 r 40\n", 1, "'cores=0'"),
    ("# repro-trace v1 cores=-2 line=64\n0 1 r 40\n", 1, "'cores=-2'"),
    ("# repro-trace v1 cores=2 line=0\n0 1 r 40\n", 1, "'line=0'"),
    ("# repro-trace v1 cores=2 line=x\n0 1 r 40\n", 1, "'line=x'"),
], ids=["negative-core", "address-over-63-bits", "zero-cores",
        "negative-cores", "zero-line", "non-integer-line"])
def test_out_of_range_values_are_rejected_at_their_line(tmp_path, body,
                                                        lineno, reason):
    """Each used to load: a negative core's accesses were dropped, an
    address past int64 overflowed the cache arrays mid-run, and a header
    size <= 0 (or not a number) failed later or untyped."""
    path = tmp_path / "t.trace"
    path.write_text(body)
    with pytest.raises(TraceFileError) as info:
        FileTraceWorkload(path)
    assert str(info.value).startswith(f"{path}:{lineno}: ")
    assert reason in str(info.value)


def test_largest_int64_address_is_accepted(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(HEADER + "0 1 r 40\n1 0 w 7fffffffffffffc0\n")
    streams = FileTraceWorkload(path).streams(2, 64, None)
    assert streams[1].next_access() == (0, True, 0x7FFFFFFFFFFFFFC0)


def test_full_system_runs_from_trace(tmp_path):
    """A chip driven by a replayed trace executes end to end."""
    path = tmp_path / "t.trace"
    rng = DeterministicRng(3).stream("capture")
    capture_workload(workload_by_name("water_spatial"), 16, 64, rng,
                     accesses_per_core=300, path=path)
    config = small_test_config(16, Variant.COMPLETE_NOACK)
    system = build_system(config, FileTraceWorkload(path))
    cycles = system.run_instructions(400, max_cycles=1_000_000)
    assert cycles > 0
    assert system.stats.counter("circuit.outcome.on_circuit") > 0


def test_trace_replay_is_deterministic(tmp_path):
    path = tmp_path / "t.trace"
    rng = DeterministicRng(3).stream("capture")
    capture_workload(workload_by_name("water_spatial"), 16, 64, rng,
                     accesses_per_core=200, path=path)
    config = small_test_config(16, Variant.BASELINE)

    def run():
        system = build_system(config, FileTraceWorkload(path))
        return system.run_instructions(300, max_cycles=1_000_000)

    assert run() == run()
