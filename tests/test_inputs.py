"""External inputs fail typed: a mutated wire spec raises only
:class:`~repro.service.protocol.ServiceError` (naming the field) or
:class:`~repro.config.ConfigError`, never a bare ``KeyError`` /
``TypeError`` / ``ValueError``; a damaged result-store shard file is a
quarantined miss; an unusable store manifest and an out-of-range
``n_cores`` raise ``ConfigError``.
"""

import json
import os
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ConfigError
from repro.harness.cache import (
    MANIFEST_NAME,
    SCHEMA_VERSION,
    SHARD_MAGIC,
    ShardedCache,
    encode_shard,
    open_cache,
)
from repro.harness.experiment import RunSpec, spec_keys
from repro.noc.topology import MAX_CORES, TOPOLOGY_CHOICES, topology_grid_side
from repro.service.protocol import ServiceError, spec_from_json, spec_to_json
from repro.sim.config import SystemConfig, Variant
from repro.telemetry import TelemetryConfig

VALID = [
    spec_to_json(RunSpec(16, Variant.COMPLETE_NOACK, "canneal", 3, 500, 200,
                         topology="torus")),
    spec_to_json(RunSpec(64, Variant.BASELINE, "fft",
                         telemetry=TelemetryConfig(interval=250))),
]

#: Any value JSON can carry (``json.loads`` also accepts NaN / Infinity).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


def _decode(data) -> None:
    """Decode ``data`` and key the spec the way the daemon does; only the
    typed errors may escape."""
    try:
        spec = spec_from_json(data)
    except (ServiceError, ConfigError):
        return
    assert isinstance(spec, RunSpec)
    try:
        spec_keys([spec])
    except ConfigError:
        pass


def _mutate(draw_field, draw_value, data: dict, action: str) -> object:
    data = dict(data)
    if action == "replace":
        data[draw_field(sorted(data))] = draw_value()
    elif action == "delete":
        del data[draw_field(sorted(data))]
    elif action == "telemetry" and isinstance(data.get("telemetry"), dict):
        telemetry = dict(data["telemetry"])
        telemetry[draw_field(sorted(telemetry))] = draw_value()
        data["telemetry"] = telemetry
    elif action == "whole":
        return draw_value()
    else:
        data["telemetry"] = draw_value()
    return data


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_spec_fails_typed(data):
    base = data.draw(st.sampled_from(VALID))
    action = data.draw(st.sampled_from(
        ["replace", "delete", "telemetry", "whole", "set-telemetry"]))
    mutated = _mutate(lambda names: data.draw(st.sampled_from(names)),
                      lambda: data.draw(json_values), base, action)
    _decode(mutated)


def test_a_seeded_replay_of_3000_mutations_finds_no_untyped_error():
    rng = random.Random(2063)
    pool = [None, True, -1, 0, 2**70, 1.5, float("inf"), float("nan"), "",
            "x", "16", "Baseline", [], [1], {}, {"a": 1}]
    untyped = []
    for _ in range(3000):
        mutated = _mutate(rng.choice, lambda: rng.choice(pool),
                          rng.choice(VALID), rng.choice(
                              ["replace", "delete", "telemetry", "whole",
                               "set-telemetry"]))
        try:
            _decode(mutated)
        except Exception as exc:  # noqa: BLE001 - counting what escapes
            untyped.append((mutated, exc))
    assert untyped == []


@pytest.mark.parametrize("field,value", [
    ("n_cores", "sixteen"), ("variant", "NoSuchVariant"),
    ("workload", 7), ("seed", None), ("measure_instructions", float("inf")),
    ("warmup_instructions", KeyError), ("telemetry", 3),
    ("topology", ["mesh"]),
])
def test_the_service_error_names_the_field(field, value):
    """``KeyError`` as the value stands for a missing field."""
    data = dict(VALID[0], **{field: value})
    if value is KeyError:
        del data[field]
    with pytest.raises(ServiceError, match=repr(field)):
        spec_from_json(data)


def test_valid_specs_round_trip():
    for data in VALID:
        assert spec_to_json(spec_from_json(data)) == data


# ----------------------------------------------------------------------
# Result-store shard files.
# ----------------------------------------------------------------------

#: Seconds one load of a damaged shard file may take, quarantine
#: included (it reads a few kB and renames one file).
LOAD_BOUND_S = 1.0

KEY = "16/Baseline/canneal/1/250/80"
ENTRY = {"spec_key": KEY, "exec_cycles": 1234, "counters": {"l1.hits": 7},
         "means": {"lat.net.req": 12.5, "lat.net.req.p99": 40.0},
         "histograms": {"lat": {"bucket_width": 1, "buckets": {"3": 2}}},
         "error": None}


def _real_shard(tmp_path):
    """A one-shard store holding two entries, written by the store itself:
    ``(manifest bytes, shard file bytes)``."""
    store = ShardedCache(str(tmp_path / "source"), n_shards=1)
    store.store_many({KEY: ENTRY, KEY.replace("/1/", "/2/"): {"v": [1.5]}})
    with open(os.path.join(store.root, MANIFEST_NAME), "rb") as handle:
        manifest = handle.read()
    with open(store.shard_for(KEY).path, "rb") as handle:
        return manifest, handle.read()


def _planted(tmp_path, name, manifest, shard):
    """A store whose one shard file holds the bytes ``shard``."""
    root = tmp_path / name
    root.mkdir()
    (root / MANIFEST_NAME).write_bytes(manifest)
    store = open_cache(str(root))
    with open(store.shard_for(KEY).path, "wb") as handle:
        handle.write(shard)
    return store


def _mutations(shard):
    """Seeded damage to a real shard file: ``(label, bytes)``."""
    rng = random.Random(38)
    for n in range(48):
        data = bytearray(shard)
        for _ in range(1 + n % 3):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        yield f"flip{n}", bytes(data)
    for length in sorted({1, 7, 8, 11, 12, 13, len(shard) // 2,
                          len(shard) - 1, *rng.sample(range(len(shard)), 8)}):
        yield f"truncate{length}", shard[:length]
    for tail in (b"\0", b"garbage", bytes(rng.randrange(256)
                                         for _ in range(64))):
        yield f"append{len(tail)}", shard + tail
    yield "empty", b""
    yield "wrong-magic", b"\x89RSTORE\r" + shard[len(SHARD_MAGIC):]
    yield "json-schema-1", json.dumps(
        {"schema": 1, "entries": {KEY: ENTRY}}).encode()


def _corrupt(root):
    return sorted(n for n in os.listdir(root) if ".corrupt." in n)


def test_a_damaged_shard_file_is_one_quarantined_miss(tmp_path):
    """Byte flips, truncation, appended bytes, an empty file and a wrong
    magic: every load is a miss within ``LOAD_BOUND_S``, raises nothing,
    and moves the file aside exactly once, byte for byte."""
    manifest, shard = _real_shard(tmp_path)
    cases = list(_mutations(shard))
    assert len(cases) > 60
    for index, (label, damaged) in enumerate(cases):
        store = _planted(tmp_path, f"case{index}", manifest, damaged)
        start = time.perf_counter()
        found = store.load_many([KEY])
        elapsed = time.perf_counter() - start
        assert found == {}, label
        assert elapsed < LOAD_BOUND_S, (label, elapsed)
        [moved] = _corrupt(store.root)
        with open(os.path.join(store.root, moved), "rb") as handle:
            assert handle.read() == damaged, label
        assert store.load(KEY) is None  # now simply absent
        assert len(_corrupt(store.root)) == 1, label
    # the undamaged file reads back
    intact = _planted(tmp_path, "intact", manifest, shard)
    assert intact.load(KEY) == ENTRY


@pytest.mark.parametrize("label,payload", [
    ("top-level list", [KEY, ENTRY]),
    ("schema 1", {"schema": 1, "entries": {KEY: ENTRY}}),
    ("unknown schema", {"schema": SCHEMA_VERSION + 1, "entries": {}}),
    ("no schema", {KEY: ENTRY}),
    ("entries a list", {"schema": SCHEMA_VERSION, "entries": [ENTRY]}),
])
def test_a_well_framed_payload_of_the_wrong_shape_is_quarantined(
        tmp_path, label, payload):
    manifest, _ = _real_shard(tmp_path)
    store = _planted(tmp_path, "store", manifest, encode_shard(payload))
    assert store.load(KEY) is None, label
    assert len(_corrupt(store.root)) == 1, label


@pytest.mark.parametrize("label,payload", [
    ("not marshal", b"\xff\xfe not marshal data"),
    ("cut marshal", encode_shard({"schema": SCHEMA_VERSION,
                                   "entries": {KEY: ENTRY}})[20:-5]),
])
def test_a_payload_that_passes_the_crc_but_does_not_decode_is_quarantined(
        tmp_path, label, payload):
    import zlib

    manifest, _ = _real_shard(tmp_path)
    framed = SHARD_MAGIC + zlib.crc32(payload).to_bytes(4, "little") + payload
    store = _planted(tmp_path, "store", manifest, framed)
    assert store.load(KEY) is None, label
    assert len(_corrupt(store.root)) == 1, label


def test_a_tuple_or_bytes_entry_is_dropped_not_the_file(tmp_path):
    manifest, _ = _real_shard(tmp_path)
    other = KEY.replace("/1/", "/2/")
    odd = KEY.replace("/1/", "/3/")
    store = _planted(tmp_path, "store", manifest, encode_shard(
        {"schema": SCHEMA_VERSION,
         "entries": {KEY: (1, 2), other: b"bytes", odd: {"v": 1}}}))
    assert store.load_many([KEY, other, odd]) == {odd: {"v": 1}}
    assert _corrupt(store.root) == []


# ----------------------------------------------------------------------
# Result-store manifest.
# ----------------------------------------------------------------------

def _snapshot(root):
    return {name: (root / name).read_bytes() for name in os.listdir(root)}


@pytest.mark.parametrize("label,text,complaint", [
    ("corrupt", "{ not json", "unreadable sharded-cache manifest"),
    ("a list", "[16]", "top level is not an object"),
    ("schema 1", '{"schema": 1, "n_shards": 16}',
     "move it aside; its results will be recomputed"),
    ("unknown schema", '{"schema": 99, "n_shards": 16}', "unknown schema 99"),
    ("no schema", '{"n_shards": 16}', "unknown schema None"),
    ("no shard count", '{"schema": %d}' % SCHEMA_VERSION,
     "unreadable sharded-cache manifest"),
    ("zero shards", '{"schema": %d, "n_shards": 0}' % SCHEMA_VERSION,
     "unreadable sharded-cache manifest"),
])
def test_an_unusable_manifest_fails_typed_and_is_left_alone(
        tmp_path, label, text, complaint):
    root = tmp_path / "store"
    root.mkdir()
    (root / MANIFEST_NAME).write_text(text)
    (root / "shard-000.json").write_text('{"schema": 1, "entries": {}}')
    before = _snapshot(root)
    with pytest.raises(ConfigError, match=complaint) as info:
        open_cache(str(root) + os.sep)
    assert str(root) in str(info.value), label
    assert (info.value.setting, info.value.source) == ("cache", "REPRO_CACHE")
    assert _snapshot(root) == before, label


def test_the_cli_refuses_a_schema_1_store_with_exit_2(
        tmp_path, monkeypatch, capsys):
    from repro.harness.__main__ import main

    root = tmp_path / "old"
    root.mkdir()
    (root / MANIFEST_NAME).write_text('{"schema": 1, "n_shards": 16}')
    (root / "shard-003.json").write_text(json.dumps(
        {"schema": 1, "entries": {KEY: ENTRY}}))
    before = _snapshot(root)
    monkeypatch.setenv("REPRO_CACHE", str(root) + os.sep)
    assert main(["table1", "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(root) in err
    assert "Traceback" not in err
    assert _snapshot(root) == before


# ----------------------------------------------------------------------
# Core count.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("topology", TOPOLOGY_CHOICES)
@pytest.mark.parametrize("n_cores",
                         [-1, 0, -4, 33 ** 2, 4 * 17 ** 2, 2 ** 70])
def test_an_out_of_range_core_count_fails_typed(topology, n_cores):
    with pytest.raises(ConfigError,
                       match=rf"n_cores must be in 1\.\.{MAX_CORES}") as info:
        topology_grid_side(topology, n_cores)
    assert info.value.setting == "n_cores"


def test_a_huge_core_count_is_refused_before_anything_is_built():
    with pytest.raises(ConfigError, match="n_cores"):
        SystemConfig(n_cores=2 ** 70)


@pytest.mark.parametrize("n_cores,sides", [
    (1, {"mesh": 1, "torus": 1}),
    (256, {"mesh": 16, "torus": 16, "cmesh": 8}),
    (MAX_CORES, {"mesh": 32, "torus": 32, "cmesh": 16}),
])
def test_core_counts_up_to_the_cap_still_tile(n_cores, sides):
    for topology, side in sides.items():
        assert topology_grid_side(topology, n_cores) == side
