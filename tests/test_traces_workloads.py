"""Synthetic traces and workload profiles."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ConfigError
from repro.cpu.trace import AccessStream, StreamParams
from repro.cpu.workloads import (
    ALL_WORKLOADS,
    MULTIPROGRAMMED_MIX,
    PARALLEL_WORKLOADS,
    workload_by_name,
)


def make_stream(params=None, core=0, seed=1):
    return AccessStream(params or StreamParams(), core, 64, Random(seed))


def test_stream_is_deterministic():
    a = make_stream(seed=5)
    b = make_stream(seed=5)
    assert [a.next_access() for _ in range(50)] == [
        b.next_access() for _ in range(50)
    ]


def test_streams_differ_across_cores_and_seeds():
    a = [make_stream(core=0, seed=1).next_access() for _ in range(20)]
    b = [make_stream(core=1, seed=2).next_access() for _ in range(20)]
    assert a != b


def test_addresses_are_line_aligned():
    stream = make_stream()
    for _ in range(200):
        _gap, _w, addr = stream.next_access()
        assert addr % 64 == 0


def test_private_regions_disjoint_across_cores():
    params = StreamParams(shared_frac=0.0)
    streams = [make_stream(params, core=c, seed=c) for c in range(4)]
    seen = {}
    for c, stream in enumerate(streams):
        for _ in range(500):
            _g, _w, addr = stream.next_access()
            if addr in seen:
                assert seen[addr] == c, "private address crossed cores"
            seen[addr] = c


def test_shared_region_is_common():
    params = StreamParams(shared_frac=0.5, shared_lines=64)
    stream_a = make_stream(params, 0, 1)
    stream_b = make_stream(params, 1, 2)
    a = {stream_a.next_access()[2] for _ in range(500)}
    b = {stream_b.next_access()[2] for _ in range(500)}
    shared_a = {addr for addr in a if addr < 64 * 64}
    shared_b = {addr for addr in b if addr < 64 * 64}
    assert shared_a & shared_b  # overlap in the shared region


def test_gap_mean_tracks_mem_ratio():
    params = StreamParams(mem_ratio=0.25)
    stream = make_stream(params)
    gaps = [stream.next_access()[0] for _ in range(5000)]
    mean_gap = sum(gaps) / len(gaps)
    expected = (1 - 0.25) / 0.25  # geometric mean gap
    assert abs(mean_gap - expected) / expected < 0.15


def test_cold_addresses_never_repeat():
    params = StreamParams(cold_frac=0.5, mid_frac=0.0, shared_frac=0.0)
    stream = make_stream(params)
    cold = [addr for _g, _w, addr in
            (stream.next_access() for _ in range(300))
            if addr >= (1 << 32) * 64]
    assert len(cold) == len(set(cold))
    assert cold  # some cold accesses happened


def test_param_validation():
    with pytest.raises(ValueError):
        StreamParams(mem_ratio=0.0)
    with pytest.raises(ValueError):
        StreamParams(write_frac=1.5)
    with pytest.raises(ValueError):
        StreamParams(mid_frac=0.9, cold_frac=0.2)
    with pytest.raises(ValueError):
        StreamParams(hot_lines=0)


@settings(max_examples=25)
@given(
    mem=st.floats(0.05, 1.0),
    wr=st.floats(0, 1),
    sh=st.floats(0, 0.5),
    mid=st.floats(0, 0.5),
)
def test_any_valid_params_generate(mem, wr, sh, mid):
    params = StreamParams(mem_ratio=mem, write_frac=wr, shared_frac=sh,
                          mid_frac=mid)
    stream = make_stream(params)
    for _ in range(50):
        gap, is_write, addr = stream.next_access()
        assert gap >= 0
        assert isinstance(is_write, bool)
        assert addr >= 0


def test_workload_catalogue_matches_paper():
    names = {w.name for w in ALL_WORKLOADS}
    # 10 PARSEC + 11 SPLASH-2 + the multiprogrammed mix = 22 workloads
    assert len(ALL_WORKLOADS) == 22
    assert len(PARALLEL_WORKLOADS) == 21
    assert {"blackscholes", "canneal", "x264", "barnes", "ocean_cp",
            "water_spatial", "mix"} <= names
    parsec = [w for w in PARALLEL_WORKLOADS if w.suite == "parsec"]
    splash = [w for w in PARALLEL_WORKLOADS if w.suite == "splash2"]
    assert len(parsec) == 10 and len(splash) == 11


def test_workload_by_name():
    assert workload_by_name("canneal").suite == "parsec"
    with pytest.raises(ConfigError, match="doom.*canneal") as err:
        workload_by_name("doom")
    assert (err.value.setting, err.value.source) == ("workload",
                                                     "RunSpec.workload")


def test_mix_assigns_each_app_once_at_16_cores():
    streams = MULTIPROGRAMMED_MIX.streams(16, 64, Random(1))
    assert len(streams) == 16
    params = {id(s.params) for s in streams}
    assert len(params) == 16  # 16 distinct applications


def test_mix_uses_four_copies_at_64_cores():
    streams = MULTIPROGRAMMED_MIX.streams(64, 64, Random(1))
    assert len(streams) == 64
    from collections import Counter

    counts = Counter(id(s.params) for s in streams)
    assert all(v == 4 for v in counts.values())


def test_mix_has_no_sharing():
    for s in MULTIPROGRAMMED_MIX.streams(16, 64, Random(1)):
        assert s.params.shared_frac == 0.0


def test_profiles_are_diverse():
    mids = {w.params.mid_frac for w in PARALLEL_WORKLOADS}
    shares = {w.params.shared_frac for w in PARALLEL_WORKLOADS}
    assert len(mids) > 10
    assert len(shares) > 5
