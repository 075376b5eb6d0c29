"""The sharded result store: routing, the one way in, multiprocess safety.

The hammer tests at the bottom are the acceptance gate of the store: N
concurrent writer processes across M shards, one of them crashing while
it holds a shard lock mid-publish, and the surviving entries must be
exactly the union of what the live writers wrote - nothing lost, nothing
duplicated across shard files.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.config import ConfigError
from repro.harness.cache import (
    DEFAULT_SHARDS,
    FileLock,
    MANIFEST_NAME,
    QUARANTINE_KEEP,
    ShardedCache,
    decode_shard,
    encode_shard,
    open_cache,
    parse_spec_key,
    prune_quarantine,
    spec_key_shard,
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)


def _key(n_cores=16, variant="Baseline", workload="canneal", seed=1,
         measure=10000, warmup=2000, topology=""):
    base = f"{n_cores}/{variant}/{workload}/{seed}/{measure}/{warmup}"
    return f"{base}/{topology}" if topology else base


# ----------------------------------------------------------------------
# Spec-key schema.
# ----------------------------------------------------------------------

def test_parse_spec_key_roundtrips_mesh_key():
    parsed = parse_spec_key(_key())
    assert parsed == {
        "n_cores": 16, "variant": "Baseline", "workload": "canneal",
        "seed": 1, "measure_instructions": 10000,
        "warmup_instructions": 2000,
    }


def test_parse_spec_key_accepts_topology_suffix():
    parsed = parse_spec_key(_key(topology="torus"))
    assert parsed["topology"] == "torus"


@pytest.mark.parametrize("bad", [
    "16/Baseline/canneal/1/10000",            # too few components
    "16/Baseline/canneal/1/10000/2000/torus/x",  # too many
    "x/Baseline/canneal/1/10000/2000",        # non-integer n_cores
    "16/Baseline/canneal/one/10000/2000",     # non-integer seed
    "16/NotAVariant/canneal/1/10000/2000",    # unknown variant
    "16/baseline/canneal/1/10000/2000",       # wrong case (schema is exact)
    "16/Baseline//1/10000/2000",              # empty workload
    "16/Baseline/canneal/1/0/2000",           # out-of-range measure
    "16/Baseline/canneal/1/10000/2000/mesh",  # mesh never carries suffix
    "16/Baseline/canneal/1/10000/2000/ring",  # unknown topology
])
def test_parse_spec_key_rejects(bad):
    with pytest.raises(ValueError):
        parse_spec_key(bad)


def test_shard_routing_is_stable_and_cell_grouped():
    n = 8
    base = spec_key_shard(_key(seed=1), n)
    # Every seed/quantum/topology variation of one sweep cell shares a
    # shard; the index is deterministic and in range.
    for key in (_key(seed=7), _key(measure=123, warmup=45),
                _key(topology="torus")):
        assert spec_key_shard(key, n) == base
    for workload in ("fft", "lu_cb", "radix", "barnes"):
        assert 0 <= spec_key_shard(_key(workload=workload), n) < n
    assert spec_key_shard(_key(), n) == spec_key_shard(_key(), n)


# ----------------------------------------------------------------------
# Sharded store basics.
# ----------------------------------------------------------------------

def test_sharded_roundtrip_and_shard_placement(tmp_path):
    root = str(tmp_path / "store")
    store = ShardedCache(root, n_shards=4)
    entries = {
        _key(workload=f"wl{i}", seed=s): {"i": i, "s": s}
        for i in range(6) for s in (1, 2)
    }
    store.store_many(entries)
    assert store.load_all() == entries
    for key, entry in entries.items():
        assert store.load(key) == entry
    # Each key lives in exactly the shard file its routing names.
    seen = {}
    for name in os.listdir(root):
        if not name.startswith("shard-") or not name.endswith(".bin"):
            continue
        index = int(name[len("shard-"):-len(".bin")])
        with open(os.path.join(root, name), "rb") as handle:
            data = decode_shard(handle.read())
        for key in data["entries"]:
            assert spec_key_shard(key, 4) == index
            assert key not in seen, f"{key} duplicated across shards"
            seen[key] = index
    assert set(seen) == set(entries)


def test_manifest_anchors_geometry_over_requests(tmp_path):
    root = str(tmp_path / "store")
    ShardedCache(root, n_shards=4).store(_key(), {"v": 1})
    # A later opener asking for a different geometry follows the manifest.
    reopened = ShardedCache(root, n_shards=32)
    assert reopened.n_shards == 4
    assert reopened.load(_key()) == {"v": 1}
    with open(os.path.join(root, MANIFEST_NAME)) as handle:
        assert json.load(handle)["n_shards"] == 4


def test_open_cache_picks_backend(tmp_path):
    """One backend, however the path is spelled."""
    existing_dir = tmp_path / "dirstore"
    existing_dir.mkdir()
    for path in (str(tmp_path / "missing"), str(existing_dir)):
        for spelling in (path, path + os.sep, path + "/"):
            store = open_cache(spelling)
            assert type(store) is ShardedCache
            assert store.root == path
    # an existing store's geometry comes from its manifest
    ShardedCache(str(tmp_path / "small"), n_shards=2)
    assert open_cache(str(tmp_path / "small") + os.sep).n_shards == 2


def test_open_cache_rejects_a_regular_file_and_leaves_it_alone(tmp_path):
    """A file at the store path is outside input: typed error, the file is
    never read, moved or overwritten."""
    path = tmp_path / "cache.json"
    payload = json.dumps({"schema": 1, "entries": {_key(): {"v": 1}}})
    path.write_text(payload)
    for spelling in (str(path), str(path) + os.sep):
        with pytest.raises(ConfigError, match="cache.json") as info:
            open_cache(spelling)
        assert info.value.setting == "cache"
    assert path.read_text() == payload
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]


def test_open_cache_defaults_shard_count(tmp_path):
    store = open_cache(str(tmp_path / "store") + os.sep)
    assert store.n_shards == DEFAULT_SHARDS


def test_corrupt_shard_is_quarantined_not_fatal(tmp_path):
    root = str(tmp_path / "store")
    store = ShardedCache(root, n_shards=2)
    key = _key()
    store.store(key, {"v": 1})
    shard_path = store.shard_for(key).path
    with open(shard_path, "w") as handle:
        handle.write("{ not json")
    assert store.load(key) is None
    corrupt = [n for n in os.listdir(root) if ".corrupt." in n]
    assert len(corrupt) == 1
    store.store(key, {"v": 2})
    assert store.load(key) == {"v": 2}


def test_opening_an_existing_store_takes_no_lock(tmp_path, monkeypatch):
    """Reads never lock: an existing store opens and reads with locking
    unusable (as on a read-only mount) and leaves no lock file behind;
    only creating a store locks its manifest."""
    root = str(tmp_path / "store")
    ShardedCache(root, n_shards=4).store(_key(), {"v": 1})

    def refuse(lock):
        raise RuntimeError(f"locked {os.path.basename(lock.path)}")

    monkeypatch.setattr(FileLock, "acquire", refuse)
    store = open_cache(root)
    assert store.n_shards == 4
    assert store.load(_key()) == {"v": 1}
    assert store.load_many([_key(), _key(seed=2)]) == {_key(): {"v": 1}}
    assert not [name for name in os.listdir(root) if name.endswith(".lock")]
    with pytest.raises(RuntimeError, match="locked shards.json.lock"):
        open_cache(str(tmp_path / "fresh"))
    with open(os.path.join(root, MANIFEST_NAME), "w") as handle:
        handle.write("{ not json")
    with pytest.raises(ValueError, match="unreadable sharded-cache manifest"):
        open_cache(root)


def _keys_by_shard(n_shards, count):
    """``{shard index: [key, ...]}`` for ``count`` workloads' keys."""
    by_shard = {}
    for i in range(count):
        key = _key(workload=f"wl{i}")
        by_shard.setdefault(spec_key_shard(key, n_shards), []).append(key)
    return by_shard


def test_load_many_matches_per_key_load(tmp_path, caplog):
    """Hits, misses, duplicates, a missing shard file, a non-dict entry
    and a corrupt shard: the batch read returns what key-by-key reads
    would, and quarantines the corrupt shard once."""
    by_shard = _keys_by_shard(4, 40)
    hit_a, hit_b, missed, bad = by_shard[0][:4]
    rotten, rotten_missed = by_shard[1][:2]
    [absent] = by_shard[2][:1]
    root = tmp_path / "a"
    store = ShardedCache(str(root), n_shards=4)
    store.store_many({hit_a: {"v": 1}, hit_b: {"v": 2}, rotten: {"v": 3}})
    shard0 = store.shard_for(hit_a).path
    with open(shard0, "rb") as handle:
        data = decode_shard(handle.read())
    data["entries"][bad] = "not-a-dict"
    with open(shard0, "wb") as handle:
        handle.write(encode_shard(data))
    with open(store.shard_for(rotten).path, "w") as handle:
        handle.write("{ not json")
    twin = ShardedCache(str(tmp_path / "b"), n_shards=4)
    for name in os.listdir(root):
        (tmp_path / "b" / name).write_bytes((root / name).read_bytes())

    keys = [hit_a, missed, hit_b, hit_a, absent, bad, rotten, rotten_missed]
    with caplog.at_level("WARNING", logger="repro.harness.cache"):
        batch = store.load_many(keys)
    quarantines = [r for r in caplog.records if "quarantined" in r.message]
    assert len(quarantines) == 1
    assert len([n for n in os.listdir(root) if ".corrupt." in n]) == 1
    assert batch == {hit_a: {"v": 1}, hit_b: {"v": 2}}
    assert batch == {k: v for k in keys
                     for v in [twin.load(k)] if v is not None}


def test_load_many_parses_each_shard_once(tmp_path, shard_reads):
    store = ShardedCache(str(tmp_path / "store"), n_shards=16)
    entries = {_key(workload=f"wl{i % 16}", seed=i): {"i": i}
               for i in range(64)}
    store.store_many(entries)
    shard_reads.clear()
    assert store.load_many(list(entries)) == entries
    assert shard_reads and max(shard_reads.values()) == 1
    assert sum(shard_reads.values()) == len(
        {spec_key_shard(key, 16) for key in entries})


# ----------------------------------------------------------------------
# Quarantine pruning.
# ----------------------------------------------------------------------

def test_prune_quarantine_keeps_newest(tmp_path):
    for n in range(QUARANTINE_KEEP + 3):
        victim = tmp_path / f"cache.json.corrupt.1.{n}"
        victim.write_text("{}")
        os.utime(victim, (n, n))  # monotone mtimes, oldest first
    prune_quarantine(str(tmp_path), "cache.json.corrupt.")
    left = sorted(p.name for p in tmp_path.iterdir())
    assert len(left) == QUARANTINE_KEEP
    # The newest (highest-mtime) files survive.
    assert f"cache.json.corrupt.1.{QUARANTINE_KEEP + 2}" in left
    assert "cache.json.corrupt.1.0" not in left


# ----------------------------------------------------------------------
# Multiprocess hammer.
# ----------------------------------------------------------------------

N_WRITERS = 5
KEYS_PER_WRITER = 30
HAMMER_SHARDS = 4


def _writer_keys(writer_id):
    """Writer-unique keys spread across sweep cells (hence shards)."""
    return {
        _key(n_cores=16 + 16 * writer_id, workload=f"wl{i % 6}",
             seed=writer_id, measure=1000 + i): {"writer": writer_id, "i": i}
        for i in range(KEYS_PER_WRITER)
    }


def _hammer_writer(root, writer_id, barrier):
    store = ShardedCache(root, lock_timeout=120.0, lock_stale=1.0)
    barrier.wait()
    for key, entry in _writer_keys(writer_id).items():
        store.store(key, entry)


def _crashing_writer(root, barrier):
    """Dies mid-publish while holding a shard lock (simulated SIGKILL)."""
    from repro.harness import cache as cache_mod

    def crash_publish(self, entries):
        os._exit(17)

    cache_mod._ShardFile._publish = crash_publish
    store = cache_mod.ShardedCache(root, lock_timeout=120.0, lock_stale=1.0)
    barrier.wait()
    store.store(_key(n_cores=16, workload="wl0", seed=99), {"doomed": True})


def test_multiprocess_hammer_no_lost_or_duplicated_entries(tmp_path):
    root = str(tmp_path / "store")
    ShardedCache(root, n_shards=HAMMER_SHARDS)  # anchor geometry up front
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(N_WRITERS + 1)
    writers = [
        ctx.Process(target=_hammer_writer, args=(root, wid, barrier))
        for wid in range(N_WRITERS)
    ]
    crasher = ctx.Process(target=_crashing_writer, args=(root, barrier))
    for proc in writers + [crasher]:
        proc.start()
    for proc in writers:
        proc.join(timeout=300)
        assert proc.exitcode == 0
    crasher.join(timeout=300)
    assert crasher.exitcode == 17  # really died inside _publish

    expected = {}
    for wid in range(N_WRITERS):
        expected.update(_writer_keys(wid))
    store = ShardedCache(root, lock_stale=1.0)
    assert store.n_shards == HAMMER_SHARDS
    merged = store.load_all()
    assert merged == expected  # nothing lost, nothing extra
    # No key appears in more than one shard file, and every shard file
    # holds only keys that route to it.
    total = 0
    for name in os.listdir(root):
        if not name.startswith("shard-") or not name.endswith(".bin"):
            continue
        index = int(name[len("shard-"):-len(".bin")])
        with open(os.path.join(root, name), "rb") as handle:
            entries = decode_shard(handle.read())["entries"]
        for key in entries:
            assert spec_key_shard(key, HAMMER_SHARDS) == index
        total += len(entries)
    assert total == len(expected)


def test_crash_mid_publish_leaves_store_recoverable(tmp_path):
    root = str(tmp_path / "store")
    pre_key = _key(n_cores=16, workload="wl0", seed=1)
    store = ShardedCache(root, n_shards=2, lock_stale=1.0)
    store.store(pre_key, {"v": "pre-existing"})

    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(1)
    crasher = ctx.Process(target=_crashing_writer, args=(root, barrier))
    crasher.start()
    crasher.join(timeout=60)
    assert crasher.exitcode == 17
    # The corpse left its shard lock behind...
    locks = [n for n in os.listdir(root)
             if n.startswith("shard-") and n.endswith(".lock")]
    assert locks, "crashing writer should have died holding a shard lock"
    # ...but a later writer breaks the stale lock and proceeds, and the
    # atomic-publish discipline means nothing already stored was torn.
    time.sleep(1.1)  # age the lock past lock_stale
    after_key = _key(n_cores=16, workload="wl0", seed=2)
    store.store(after_key, {"v": "after-crash"})
    merged = store.load_all()
    assert merged[pre_key] == {"v": "pre-existing"}
    assert merged[after_key] == {"v": "after-crash"}
    assert not any(".corrupt." in n for n in os.listdir(root))


# ----------------------------------------------------------------------
# Entry types: what the harness stores loads back as JSON would give it.
# ----------------------------------------------------------------------

def _as_json_gives(loaded, written, where="entry"):
    """``loaded`` equals ``json.loads(json.dumps(written))`` type for type:
    same dict keys (of the same types), same lists, same scalars."""
    expected = json.loads(json.dumps(written))
    _same(loaded, expected, where)


def _same(a, b, where):
    assert type(a) is type(b), (where, type(a), type(b))
    if isinstance(a, dict):
        assert [type(k) for k in a] == [type(k) for k in b], where
        assert list(a) == list(b), where
        for key in a:
            _same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for index, (x, y) in enumerate(zip(a, b)):
            _same(x, y, f"{where}[{index}]")
    elif a == a:  # NaN compares unequal to itself
        assert a == b, where
    else:
        assert b != b, where


def test_every_stored_entry_loads_back_as_json_would_give_it(
        tmp_path, monkeypatch):
    """A computed ``RunResult.to_json()``, the daemon's stored result and
    ``store_many`` of re-keyed copies (which share sub-dicts) load back
    equal, type for type, to a JSON round trip of what was written, and
    no two loaded entries share a dict."""
    from repro.harness import experiment
    from repro.harness.experiment import RunSpec
    from repro.service import Daemon, ServiceClient
    from repro.sim.config import Variant

    for var in ("REPRO_SCALE", "REPRO_FULL", "REPRO_JOBS", "REPRO_SERVICE",
                "REPRO_CHECKPOINT", "REPRO_RESUME", "REPRO_SHARDS"):
        monkeypatch.delenv(var, raising=False)
    small = dict(measure_instructions=250, warmup_instructions=80)
    root = str(tmp_path / "store") + os.sep
    monkeypatch.setenv("REPRO_CACHE", root)

    # computed in process
    spec = RunSpec(16, Variant.COMPLETE_NOACK, "canneal", 1, **small)
    with experiment.fresh_memo():
        computed = experiment.run_experiment(spec).to_json()
    _as_json_gives(open_cache(root).load(spec.key()), computed, "computed")

    # computed by a daemon worker, which stores it itself
    served = RunSpec(16, Variant.BASELINE, "fft", 1, **small)
    daemon = Daemon(str(tmp_path / "repro.sock"), workers=1,
                    env=dict(os.environ))
    daemon.start()
    try:
        client = ServiceClient(daemon.address)
        [status] = client.submit([served])
        [row] = client.results([status["job_id"]], timeout=300.0)
    finally:
        daemon.shutdown()
    assert row["source"] == "run"
    stored = open_cache(root).load(served.key())
    _as_json_gives(stored, row["result"], "daemon")  # the wire is JSON

    # re-keyed copies sharing their sub-dicts, in one store_many
    copies = {f"16/Complete_NoAck/canneal/{seed}/250/80":
              dict(computed, spec_key=f"16/Complete_NoAck/canneal/{seed}/"
                   "250/80") for seed in range(2, 6)}
    copies.update({served.key().replace("/1/", "/9/"): stored})
    store = open_cache(root)
    store.store_many(copies)
    loaded = store.load_many(copies)
    assert set(loaded) == set(copies)
    for key, entry in copies.items():
        _as_json_gives(loaded[key], entry, key)
    shared = [id(entry[field]) for entry in loaded.values()
              for field in ("counters", "means", "histograms")]
    assert len(shared) == len(set(shared))
