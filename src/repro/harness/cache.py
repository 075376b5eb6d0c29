"""Crash-safe, multiprocess-shared result store (``REPRO_CACHE``).

The store is a directory (:class:`ShardedCache`): a ``shards.json``
manifest anchoring the geometry plus ``shard-NNN.json`` files, each with
its own lock file.  Entries are routed by their spec-key *prefix*
(``n_cores/variant/workload``), so hundreds of concurrent writers -- the
service daemon's worker fleet, parallel sweeps, concurrent pytest
invocations -- contend only when writing the same sweep cell instead of
all serialising on one global file.

Per shard file the store guarantees:

* **atomic publication**: writers dump to a private temp file and
  ``os.replace`` it over the shard, so readers always see either the old
  or the new complete file, never a torn ``json.dump``;
* **merge-on-write**: writers re-read the file under an exclusive lock
  file before publishing, so concurrent writers union their entries
  instead of overwriting each other;
* **versioning**: the file carries a ``schema`` field; a file without
  one, or with an unknown one, is never reinterpreted;
* **quarantine**: a corrupt or unreadable shard file is renamed to
  ``<path>.corrupt.<pid>.<n>`` (and a warning logged) instead of being
  silently ignored -- the evidence survives, and subsequent runs start
  from a clean file rather than re-quarantining forever.  Only the
  newest ``QUARANTINE_KEEP`` quarantined files are retained.

:func:`open_cache` is the one way in.  A *regular file* at the store
path is outside input this build does not understand: it fails with a
typed :class:`~repro.config.ConfigError` naming the path and is never
read, moved or overwritten.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import time
import zlib
from typing import Dict, Iterable, Optional, Set

from repro.config import ConfigError


def _logger():
    """This module's logger; ``logging`` loads only when a warning is due."""
    import logging

    return logging.getLogger("repro.harness.cache")


#: Bump when the on-disk layout changes incompatibly.
SCHEMA_VERSION = 1

#: Quarantined ``.corrupt.*`` siblings kept per cache file; older ones
#: are pruned so a flaky disk cannot grow the directory without bound.
QUARANTINE_KEEP = 5

#: Shard files a new store is created with; existing stores follow
#: their manifest.
DEFAULT_SHARDS = 16

#: Manifest file anchoring a store's geometry.
MANIFEST_NAME = "shards.json"


class CacheLockTimeout(RuntimeError):
    """Raised when the cache lock file cannot be acquired in time."""


class FileLock:
    """Exclusive inter-process lock based on ``O_CREAT | O_EXCL``.

    Portable (no ``fcntl`` dependency) and safe on every local
    filesystem.  A lock file older than ``stale_seconds`` is assumed to
    belong to a crashed writer and is broken.
    """

    def __init__(self, path: str, timeout: float = 30.0,
                 stale_seconds: float = 30.0) -> None:
        self.path = path
        self.timeout = timeout
        self.stale_seconds = stale_seconds
        self._fd: Optional[int] = None

    def acquire(self) -> None:
        deadline = time.monotonic() + self.timeout
        delay = 0.001
        while True:
            try:
                self._fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                os.write(self._fd, str(os.getpid()).encode())
                return
            except FileExistsError:
                if self._break_if_stale():
                    continue  # free now: retry even on the deadline's edge
            except OSError as exc:  # pragma: no cover - exotic filesystems
                if exc.errno != errno.EEXIST:
                    raise
            if time.monotonic() >= deadline:
                raise CacheLockTimeout(
                    f"could not lock {self.path!r} within {self.timeout:g}s; "
                    "remove the file if its owner crashed"
                )
            time.sleep(delay)
            delay = min(delay * 2, 0.05)

    def _break_if_stale(self) -> bool:
        try:
            age = time.time() - os.stat(self.path).st_mtime
        except OSError:
            return False  # released between our open() and stat()
        if age > self.stale_seconds:
            _logger().warning("breaking stale cache lock %s (%.0fs old)",
                              self.path, age)
            try:
                os.unlink(self.path)
            except OSError:
                pass
            return True
        return False

    def release(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class _ShardFile:
    """One JSON shard file with locking, merging and quarantine."""

    def __init__(self, path: str, lock_timeout: float = 30.0,
                 lock_stale: float = 30.0) -> None:
        self.path = path
        self.lock_path = path + ".lock"
        self.lock_timeout = lock_timeout
        self.lock_stale = lock_stale

    # -- reading ---------------------------------------------------------

    def load_all(self) -> Dict[str, dict]:
        """Read every entry; quarantines the file if it is corrupt."""
        if not os.path.exists(self.path):
            return {}
        try:
            with open(self.path) as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return {}  # quarantined/removed by a concurrent process
        except (OSError, ValueError) as exc:
            self._quarantine(f"unreadable JSON ({exc})")
            return {}
        entries = self._extract_entries(data)
        if entries is None:
            return {}
        # drop (don't crash on) individually corrupt entries
        return {k: v for k, v in entries.items() if isinstance(v, dict)}

    def _extract_entries(self, data: object) -> Optional[Dict[str, dict]]:
        if not isinstance(data, dict):
            self._quarantine("top level is not an object")
            return None
        if data.get("schema") != SCHEMA_VERSION or not isinstance(
            data.get("entries"), dict
        ):
            self._quarantine(
                f"unsupported schema {data.get('schema')!r} "
                f"(this build writes schema {SCHEMA_VERSION})"
            )
            return None
        return data["entries"]

    def _quarantine(self, reason: str) -> None:
        for n in itertools.count():
            dest = f"{self.path}.corrupt.{os.getpid()}.{n}"
            if not os.path.exists(dest):
                break
        try:
            os.replace(self.path, dest)
        except OSError:
            return  # another process already moved or removed it
        _logger().warning("quarantined corrupt result cache %s -> %s: %s",
                          self.path, dest, reason)
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        prune_quarantine(directory, os.path.basename(self.path) + ".corrupt.")

    # -- writing ---------------------------------------------------------

    def store(self, key: str, entry: dict) -> None:
        self.store_many({key: entry})

    def store_many(self, entries: Dict[str, dict]) -> None:
        """Merge ``entries`` into the cache file atomically."""
        if not entries:
            return
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with FileLock(self.lock_path, timeout=self.lock_timeout,
                      stale_seconds=self.lock_stale):
            merged = self.load_all()
            merged.update(entries)
            self._publish(merged)

    def _publish(self, entries: Dict[str, dict]) -> None:
        payload = {"schema": SCHEMA_VERSION, "entries": entries}
        tmp = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as handle:
                json.dump(payload, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass


# ----------------------------------------------------------------------
# Quarantine pruning.
# ----------------------------------------------------------------------

def prune_quarantine(directory: str, prefix: str,
                     keep: int = QUARANTINE_KEEP) -> None:
    """Keep only the newest ``keep`` files matching ``prefix``.

    A repeatedly-corrupted cache (bad disk, crashing writers) must not
    grow an unbounded pile of quarantined siblings.
    """
    try:
        names = [n for n in os.listdir(directory) if n.startswith(prefix)]
    except OSError:  # pragma: no cover - directory vanished
        return
    if len(names) <= keep:
        return

    def mtime(name: str) -> float:
        try:
            return os.path.getmtime(os.path.join(directory, name))
        except OSError:
            return 0.0

    names.sort(key=mtime, reverse=True)
    for name in names[keep:]:
        victim = os.path.join(directory, name)
        try:
            os.unlink(victim)
        except OSError:  # pragma: no cover - concurrent prune
            continue
        _logger().warning("pruned old quarantined cache file %s "
                          "(keeping newest %d)", victim, keep)


# ----------------------------------------------------------------------
# Spec-key schema.
# ----------------------------------------------------------------------

def parse_spec_key(key: str) -> Dict[str, object]:
    """Parse a spec key under the current schema; raises ``ValueError``.

    The schema is the producer contract of
    :meth:`repro.harness.experiment.RunSpec.key`::

        n_cores/variant/workload/seed/measure/warmup[/topology]

    The first three components are the cell prefix
    :func:`spec_key_shard` routes on.
    """
    parts = key.split("/")
    if len(parts) not in (6, 7):
        raise ValueError(
            f"spec key {key!r} has {len(parts)} components, expected "
            f"n_cores/variant/workload/seed/measure/warmup[/topology]"
        )
    n_cores_s, variant, workload, seed_s, measure_s, warmup_s = parts[:6]
    try:
        n_cores = int(n_cores_s)
        seed = int(seed_s)
        measure = int(measure_s)
        warmup = int(warmup_s)
    except ValueError:
        raise ValueError(
            f"spec key {key!r} has non-integer numeric components"
        ) from None
    if n_cores <= 0 or measure <= 0 or warmup < 0:
        raise ValueError(f"spec key {key!r} has out-of-range quanta")
    from repro.sim.config import Variant

    if variant not in {v.value for v in Variant}:
        raise ValueError(f"spec key {key!r} names unknown variant "
                         f"{variant!r}")
    if not workload:
        raise ValueError(f"spec key {key!r} has an empty workload")
    parsed: Dict[str, object] = {
        "n_cores": n_cores, "variant": variant, "workload": workload,
        "seed": seed, "measure_instructions": measure,
        "warmup_instructions": warmup,
    }
    if len(parts) == 7:
        from repro.noc.topology import TOPOLOGY_CHOICES

        topology = parts[6]
        # mesh keys never carry the suffix (historical-key compatibility)
        if topology == "mesh" or topology not in TOPOLOGY_CHOICES:
            raise ValueError(f"spec key {key!r} names unknown topology "
                             f"{topology!r}")
        parsed["topology"] = topology
    return parsed


def spec_key_shard(key: str, n_shards: int) -> int:
    """Stable shard index for ``key``: CRC32 of its cell prefix.

    The prefix is the first three components (``n_cores/variant/
    workload``), so every seed/quantum/topology variation of one sweep
    cell lands in the same shard file while different cells -- the axis
    concurrent sweeps actually fan out over -- spread across shards.
    """
    prefix = "/".join(key.split("/")[:3])
    return zlib.crc32(prefix.encode()) % n_shards


# ----------------------------------------------------------------------
# Sharded store.
# ----------------------------------------------------------------------

class ShardedCache:
    """A directory of per-shard JSON files.

    Geometry is anchored by a ``shards.json`` manifest written when the
    store is created; later openers follow the manifest regardless of
    their own ``n_shards`` argument, so concurrent processes always
    agree on the key -> shard routing.  A regular file at ``root`` raises
    :class:`~repro.config.ConfigError` and is left untouched.
    """

    def __init__(self, root: str, n_shards: Optional[int] = None,
                 lock_timeout: float = 30.0,
                 lock_stale: float = 30.0) -> None:
        if os.path.isfile(root):
            raise ConfigError(
                "cache", "REPRO_CACHE",
                f"result store path {root!r} is a regular file; the store "
                f"is a directory (e.g. REPRO_CACHE=out/results/). Point it "
                f"elsewhere or move the file away; it was not touched."
            )
        self.root = root
        self.lock_timeout = lock_timeout
        self.lock_stale = lock_stale
        os.makedirs(root, exist_ok=True)
        self.n_shards = self._anchor_manifest(n_shards)
        self._shards: Dict[int, _ShardFile] = {}

    def _anchor_manifest(self, n_shards: Optional[int]) -> int:
        """The store's shard count, creating the manifest if it is missing.

        ``os.replace`` publishes the manifest atomically, so an existing
        one is read without the lock (a read-only store stays readable);
        only creation locks, and re-reads under it.
        """
        manifest_path = os.path.join(self.root, MANIFEST_NAME)
        existing = self._read_manifest(manifest_path)
        if existing is None:
            with FileLock(manifest_path + ".lock", timeout=self.lock_timeout,
                          stale_seconds=self.lock_stale):
                existing = (self._read_manifest(manifest_path)
                            or self._create_manifest(manifest_path, n_shards))
        if n_shards and n_shards != existing:
            _logger().warning(
                "sharded cache %s has %d shards (manifest); ignoring the "
                "requested %d", self.root, existing, n_shards)
        return existing

    @staticmethod
    def _read_manifest(manifest_path: str) -> Optional[int]:
        """The manifest's shard count; None if there is no manifest."""
        try:
            with open(manifest_path) as handle:
                manifest = json.load(handle)
            existing = int(manifest["n_shards"])
            if manifest.get("schema") != SCHEMA_VERSION or existing < 1:
                raise ValueError(f"bad manifest {manifest!r}")
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"unreadable sharded-cache manifest {manifest_path!r}: {exc}"
            ) from None
        return existing

    @staticmethod
    def _create_manifest(manifest_path: str, n_shards: Optional[int]) -> int:
        chosen = n_shards if n_shards else DEFAULT_SHARDS
        if chosen < 1:
            raise ValueError(f"a sharded cache needs >= 1 shard, got {chosen}")
        tmp = f"{manifest_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump({"schema": SCHEMA_VERSION, "n_shards": chosen}, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, manifest_path)
        return chosen

    def _shard(self, index: int) -> _ShardFile:
        cache = self._shards.get(index)
        if cache is None:
            cache = _ShardFile(
                os.path.join(self.root, f"shard-{index:03d}.json"),
                lock_timeout=self.lock_timeout, lock_stale=self.lock_stale,
            )
            self._shards[index] = cache
        return cache

    def shard_for(self, key: str) -> _ShardFile:
        return self._shard(spec_key_shard(key, self.n_shards))

    # -- reading ---------------------------------------------------------

    def load(self, key: str) -> Optional[dict]:
        return self.load_many((key,)).get(key)

    def load_many(self, keys: Iterable[str]) -> Dict[str, dict]:
        """``{key: entry}`` for the stored ones among ``keys``.

        Each shard the keys route to is parsed once, and only the
        requested entries are kept, so nothing outlives the call.
        """
        by_shard: Dict[int, Set[str]] = {}
        for key in keys:
            by_shard.setdefault(
                spec_key_shard(key, self.n_shards), set()).add(key)
        found: Dict[str, dict] = {}
        for index, wanted in sorted(by_shard.items()):
            entries = self._shard(index).load_all()
            found.update((k, entries[k]) for k in wanted if k in entries)
        return found

    def load_all(self) -> Dict[str, dict]:
        merged: Dict[str, dict] = {}
        for index in range(self.n_shards):
            merged.update(self._shard(index).load_all())
        return merged

    # -- writing ---------------------------------------------------------

    def store(self, key: str, entry: dict) -> None:
        self.store_many({key: entry})

    def store_many(self, entries: Dict[str, dict]) -> None:
        """Group entries by shard; each shard publishes atomically.

        Writers touching disjoint shards never contend; writers sharing
        a shard serialise only on that shard's lock file.
        """
        by_shard: Dict[int, Dict[str, dict]] = {}
        for key, entry in entries.items():
            by_shard.setdefault(
                spec_key_shard(key, self.n_shards), {})[key] = entry
        for index, group in sorted(by_shard.items()):
            self._shard(index).store_many(group)


def open_cache(path: str) -> ShardedCache:
    """Open (creating it if missing) the result store directory ``path``.

    A trailing separator is accepted and ignored.
    """
    return ShardedCache(path.rstrip("/").rstrip(os.sep) or path)
