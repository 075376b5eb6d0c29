"""Crash-safe, multiprocess-shared result store (``REPRO_CACHE``).

The store is a directory (:class:`ShardedCache`): a ``shards.json``
manifest anchoring the geometry plus ``shard-NNN.bin`` files, each with
its own lock file.  Entries are routed by their spec-key *prefix*
(``n_cores/variant/workload``), so hundreds of concurrent writers -- the
service daemon's worker fleet, parallel sweeps, concurrent pytest
invocations -- contend only when writing the same sweep cell instead of
all serialising on one global file.

A shard file is one frame: the 8-byte :data:`SHARD_MAGIC`, the CRC32 of
the payload (4 bytes, little-endian), then the payload, a version-4
:mod:`marshal` dump of ``{"schema": 2, "entries": {key: entry}}``
(:func:`encode_shard` / :func:`decode_shard`).  ``marshal`` is built in,
and a shard of stored results, written with interned keys, decodes
about 2.5 times as fast as the same entries in ``json``; the manifest
stays JSON.  The CRC catches damage -- a torn, truncated or
bit-flipped file -- not a malicious writer: a shard file is trusted
to come from this package.

Per shard file the store guarantees:

* **atomic publication**: writers dump to a private temp file and
  ``os.replace`` it over the shard, so readers always see either the old
  or the new complete file, never a torn frame;
* **merge-on-write**: writers re-read the file under an exclusive lock
  file before publishing, so concurrent writers union their entries
  instead of overwriting each other;
* **versioning**: the payload carries a ``schema`` field; a payload
  without one, or with an unknown one, is never reinterpreted;
* **quarantine**: a shard file that fails the magic, the CRC, the
  decode or the shape checks is renamed to ``<path>.corrupt.<pid>.<n>``
  (and a warning logged) instead of being silently ignored -- the
  evidence survives, and subsequent runs start from a clean file rather
  than re-quarantining forever.  Only the newest ``QUARANTINE_KEEP``
  quarantined files are retained.

:func:`open_cache` is the one way in.  Outside input this build does
not understand fails with a typed :class:`~repro.config.ConfigError`
naming the path and is never read past, moved or overwritten: a
*regular file* at the store path, and a manifest that is unreadable or
of another schema -- a schema-1 store (JSON shard files) included, for
which there is no upgrade path.
"""

from __future__ import annotations

import errno
import itertools
import json
import marshal
import os
import sys
import time
import zlib
from typing import Dict, Iterable, Optional, Set

from repro.config import ConfigError


def _logger():
    """This module's logger; ``logging`` loads only when a warning is due."""
    import logging

    return logging.getLogger("repro.harness.cache")


#: Bump when the on-disk layout changes incompatibly.  Schema 1 was
#: JSON shard files (``shard-NNN.json``); schema 2 is the framed
#: ``shard-NNN.bin``.
SCHEMA_VERSION = 2

#: First bytes of every shard file.  The high first byte and the closing
#: newline make a text file, or one mangled by a newline conversion,
#: fail the first check.
SHARD_MAGIC = b"\x89RSTORE\n"

#: Bytes before a shard file's payload: the magic, then its CRC32.
_HEADER_BYTES = len(SHARD_MAGIC) + 4

#: ``marshal`` format version of a shard payload; readable by every
#: Python this package supports.
MARSHAL_VERSION = 4

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


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


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
        """Remove the lock file if it is stale; True if it is gone.

        Waiters that judge the same file stale break it one at a time,
        under a second ``O_EXCL`` file, and only if the lock is still
        that file: otherwise a slow breaker would delete the fresh lock
        a faster one had just taken, and both would write.
        """
        try:
            judged = os.stat(self.path)
        except OSError:
            return False  # released between our open() and stat()
        age = time.time() - judged.st_mtime
        if age <= self.stale_seconds:
            return False
        breaker = self.path + ".break"
        try:
            fd = os.open(breaker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            # another waiter is breaking it; one that died doing so
            # leaves a marker as old as a stale lock
            try:
                marker_age = time.time() - os.stat(breaker).st_mtime
            except OSError:
                return False
            if marker_age > self.stale_seconds:
                _unlink_quietly(breaker)
            return False
        try:
            try:
                now = os.stat(self.path)
            except OSError:
                return True  # broken or released meanwhile
            if (now.st_ino, now.st_mtime_ns) != (judged.st_ino,
                                                 judged.st_mtime_ns):
                return False  # a new owner holds it
            _logger().warning("breaking stale cache lock %s (%.0fs old)",
                              self.path, age)
            _unlink_quietly(self.path)
            return True
        finally:
            os.close(fd)
            _unlink_quietly(breaker)

    def release(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        _unlink_quietly(self.path)

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


def encode_shard(data: object) -> bytes:
    """The shard-file frame of ``data``: magic, CRC32, marshal payload."""
    payload = marshal.dumps(data, MARSHAL_VERSION)
    return SHARD_MAGIC + zlib.crc32(payload).to_bytes(4, "little") + payload


def decode_shard(frame: bytes) -> object:
    """What :func:`encode_shard` framed.  Raises ``ValueError`` when the
    magic or the CRC does not match, and whatever ``marshal`` raises
    (``ValueError``, ``EOFError``, ``TypeError``) on a payload it cannot
    decode."""
    if len(frame) < _HEADER_BYTES or not frame.startswith(SHARD_MAGIC):
        raise ValueError("not a shard file (bad magic)")
    payload = memoryview(frame)[_HEADER_BYTES:]
    crc = int.from_bytes(frame[len(SHARD_MAGIC):_HEADER_BYTES], "little")
    if zlib.crc32(payload) != crc:
        raise ValueError("CRC mismatch (torn or damaged file)")
    return marshal.loads(payload)


def _interned(value):
    """``value`` with every dict rebuilt and its ``str`` keys interned.

    Equal keys become one object, which ``marshal`` writes once and then
    references, so a shard of stored results decodes about twice as
    fast; a dict shared between entries becomes one copy per entry, as a
    JSON round trip would make it.
    """
    if isinstance(value, dict):
        return {(sys.intern(k) if type(k) is str else k): _interned(v)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_interned(v) for v in value]
    return value


class _ShardFile:
    """One framed shard file with locking, merging and quarantine."""

    def __init__(self, path: str, lock_timeout: float = 30.0,
                 lock_stale: float = 30.0) -> None:
        self.path = path
        self.lock_path = path + ".lock"
        self.lock_timeout = lock_timeout
        self.lock_stale = lock_stale

    # -- reading ---------------------------------------------------------

    def load_all(self) -> Dict[str, dict]:
        """Read every entry; quarantines the file if it is corrupt."""
        try:
            with open(self.path, "rb") as handle:
                data = decode_shard(handle.read())
        except FileNotFoundError:
            return {}  # not written yet, or quarantined/removed by another
        except (OSError, ValueError, EOFError, TypeError) as exc:
            self._quarantine(f"unreadable shard file ({exc})")
            return {}
        entries = self._extract_entries(data)
        if entries is None:
            return {}
        # drop (don't crash on) individually corrupt entries
        return {k: v for k, v in entries.items() if isinstance(v, dict)}

    def _extract_entries(self, data: object) -> Optional[Dict[str, dict]]:
        if not isinstance(data, dict):
            self._quarantine("payload is not a dict")
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
        """Merge ``entries`` into the cache file atomically (each one
        rebuilt by :func:`_interned` first)."""
        if not entries:
            return
        entries = _interned(entries)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with FileLock(self.lock_path, timeout=self.lock_timeout,
                      stale_seconds=self.lock_stale):
            merged = self.load_all()
            merged.update(entries)
            self._publish(merged)

    def _publish(self, entries: Dict[str, dict]) -> None:
        frame = encode_shard({"schema": SCHEMA_VERSION, "entries": entries})
        tmp = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                handle.write(frame)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        finally:
            _unlink_quietly(tmp)


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
    """A directory of framed ``shard-NNN.bin`` files (see the module
    docstring for the frame).

    Geometry is anchored by a ``shards.json`` manifest written when the
    store is created; later openers follow the manifest regardless of
    their own ``n_shards`` argument, so concurrent processes always
    agree on the key -> shard routing.  A regular file at ``root``, and
    a manifest that is unreadable or of another schema (a schema-1 store
    of JSON shards among them: there is no upgrade path), raise
    :class:`~repro.config.ConfigError` naming the path and are left
    untouched.
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
        """The manifest's shard count; None if there is no manifest.

        A manifest this build cannot use raises
        :class:`~repro.config.ConfigError` naming it; nothing is touched.
        """
        try:
            with open(manifest_path) as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise _manifest_error(manifest_path, exc) from None
        if not isinstance(manifest, dict):
            raise _manifest_error(manifest_path, "top level is not an object")
        schema = manifest.get("schema")
        if schema == 1:
            raise ConfigError(
                "cache", "REPRO_CACHE",
                f"result store {os.path.dirname(manifest_path)!r} is "
                f"schema 1 (JSON shard files) and this build reads schema "
                f"{SCHEMA_VERSION} only: move it aside; its results will be "
                f"recomputed.  It was not touched.")
        if schema != SCHEMA_VERSION:
            raise _manifest_error(
                manifest_path, f"unknown schema {schema!r} (this build reads "
                f"schema {SCHEMA_VERSION})")
        try:
            existing = int(manifest["n_shards"])
            if existing < 1:
                raise ValueError(f"n_shards {existing} < 1")
        except (KeyError, TypeError, ValueError) as exc:
            raise _manifest_error(manifest_path, exc) from None
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
                os.path.join(self.root, f"shard-{index:03d}.bin"),
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


def _manifest_error(manifest_path: str, reason: object) -> ConfigError:
    return ConfigError(
        "cache", "REPRO_CACHE",
        f"unreadable sharded-cache manifest {manifest_path!r}: {reason}.  "
        f"The store was not touched.")


def open_cache(path: str) -> ShardedCache:
    """Open (creating it if missing) the result store directory ``path``.

    A trailing separator is accepted and ignored.
    """
    return ShardedCache(path.rstrip("/").rstrip(os.sep) or path)
