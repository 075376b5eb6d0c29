"""Snapshots of complete simulator state, for the sharded engine.

A snapshot is a pickle of the *entire* live object graph - kernel wake
heap and awake set, RNG streams, router core (arrival calendar and NI
state included), coherence and driver state, batched
:class:`~repro.sim.stats.Stats` counters, in-flight messages -
plus the run-state record saying where the run script stood.  This
module owns the snapshot (capture, file format, restore); when one is
taken is the sharded engine's business (:mod:`repro.sim.shard`: each
worker snapshots its replica at a barrier, so a respawned worker can
restore it and re-enter :func:`repro.system.run_phases` at the exact
``run_until`` chunk boundary it was taken on, bit-identically).  A
single-process run keeps no snapshot: a killed run is rerun.

Why pickling the graph is safe here:

* every *stateful* callback in the simulation is a bound method or a
  ``functools.partial`` of one (controller pending events, circuit
  ``circuit_resolved`` hooks, stats flushers) - these pickle by
  reference within the graph, preserving identity;
* the remaining closures are pure *wiring* (``kernel_wake`` pokes, tile
  dispatch, address maps): they close over nothing that is not
  recreatable from the restored objects, so the pickler reduces the
  known ones to ``None`` and :meth:`repro.system.CmpSystem.reattach`
  rebuilds them after unpickling;
* any closure *not* on that allowlist is a state-carrying callable this
  module does not know how to rebuild - pickling fails loudly with
  :class:`UnpicklableStateError` naming the closure, never silently
  corrupting a snapshot.

File format (version + integrity before trust):

``MAGIC | header_len:u32 | header JSON | payload`` - the header carries
the schema version, a config fingerprint, the capture cycle and the
payload's SHA-256.  Files are written to a temp name and published with
``os.replace`` (atomic on POSIX), so a reader only ever sees a complete
old or complete new snapshot.  Readers validate magic, schema,
fingerprint and checksum in that order and raise a typed, pinpointed
error for each failure mode.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import struct
import types
from typing import Optional, Tuple

from repro.sim.kernel import SimulationError

#: On-disk layout version; bump on incompatible change (2: the pickled
#: ``run`` record is the one :func:`repro.system.new_run_state` builds;
#: 3: cache sets are parallel lists with int PLRU bits, ``DirLine.sharers``
#: may be None; 4: a cache array has no addr -> way dict, and a resident
#: way whose line slot is None holds the default line, not yet built;
#: 5: ``SystemConfig`` has no ``sim`` field; 6: ``NocConfig`` has no
#: pipeline switch, there is one router / NI class and one kernel mode;
#: 7: the routers are one kernel component with an arrival calendar, and
#: the router-bound link queues are gone; 8: the NIs run inside that
#: component, their links and kernel slots are gone, and the calendar has
#: NI keys and wake entries; 9: circuit state is the policy's store keyed
#: like the calendar - input units hold no circuit table or wait queue -
#: and the NIs' counters are the router core's; 10: a cache array's ways
#: are one int64 address array with -1 for an empty way, and its built
#: lines one ``{slot: line}`` dict).
SCHEMA_VERSION = 10

MAGIC = b"RPROCKPT"


class CheckpointError(SimulationError):
    """Base for every checkpoint/restore failure (always pinpointed)."""


class CorruptCheckpointError(CheckpointError):
    """The file is damaged: bad magic, torn header, checksum mismatch."""


class IncompatibleCheckpointError(CheckpointError):
    """The file is intact but unusable: stale schema or config mismatch."""


class UnpicklableStateError(CheckpointError):
    """The live object graph holds state this module cannot serialise."""


# ----------------------------------------------------------------------
# Pickling policy.
# ----------------------------------------------------------------------

def _dropped_closure() -> None:
    """Reconstruction target for allowlisted wiring closures."""
    return None


#: Closures that are pure wiring: reduced to None at pickle time and
#: re-created by ``CmpSystem.reattach()`` / ``Simulator.rewire_wakes()``.
_REWIRED_CLOSURES = frozenset({
    "Simulator._make_wake.<locals>.wake",
    "CmpSystem._make_dispatch.<locals>.dispatch",
    "CmpSystem._make_home_of.<locals>.home_of",
    "CmpSystem._make_mc_of.<locals>.mc_of",
})


class _StatePickler(pickle.Pickler):
    """Pickler enforcing the closure policy documented in the module."""

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType):
            qualname = obj.__qualname__
            if qualname in _REWIRED_CLOSURES:
                return (_dropped_closure, ())
            if obj.__closure__ is not None or "<locals>" in qualname \
                    or "<lambda>" in qualname:
                raise UnpicklableStateError(
                    f"simulation state holds the closure "
                    f"{obj.__module__}.{qualname}, which the checkpoint "
                    f"layer does not know how to rebuild; convert it to a "
                    f"bound method / functools.partial, or add it to the "
                    f"rewired-closure allowlist with matching reattach "
                    f"support"
                )
        return NotImplemented


def dumps_state(obj) -> bytes:
    """Pickle ``obj`` under the checkpoint closure policy."""
    buffer = io.BytesIO()
    try:
        _StatePickler(buffer, pickle.HIGHEST_PROTOCOL).dump(obj)
    except CheckpointError:
        raise
    except Exception as exc:
        raise UnpicklableStateError(
            f"simulation state is not picklable: {exc!r}"
        ) from exc
    return buffer.getvalue()


def loads_state(blob: bytes):
    """Inverse of :func:`dumps_state` (payload bytes -> object graph)."""
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise CorruptCheckpointError(
            f"checkpoint payload does not unpickle: {exc!r}"
        ) from exc


def fingerprint(*parts) -> str:
    """Stable hash of everything a checkpoint must agree with its run on."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# System-level capture / restore.
# ----------------------------------------------------------------------

def capture_system(system, run_state: dict, **extra) -> bytes:
    """Serialise a :class:`~repro.system.CmpSystem` plus run position.

    ``run_state`` must carry ``cycle`` (the boundary the snapshot
    represents: the simulator resumes *about to execute* that cycle).
    ``extra`` rides along for engine-specific state (the sharded engine
    adds its message-reassembly table).
    """
    import repro.noc.flit as flit_mod

    payload = {"system": system, "run": dict(run_state),
               "msg_ids": flit_mod._msg_ids}
    payload.update(extra)
    return dumps_state(payload)


def restore_system(blob: bytes) -> dict:
    """Rebuild a captured system: unpickle, reinstall uids, rewire.

    Returns the payload dict with ``system`` fully reattached and the
    simulator clock advanced to the captured boundary.
    """
    data = loads_state(blob)
    if not isinstance(data, dict) or "system" not in data \
            or "run" not in data:  # pragma: no cover - format trap
        raise CorruptCheckpointError(
            "checkpoint payload is not a system capture"
        )
    import repro.noc.flit as flit_mod
    from repro.system import PHASES

    phase = data["run"].get("phase")
    if phase not in PHASES:
        raise CorruptCheckpointError(
            f"checkpoint records unknown phase {phase!r}"
        )
    flit_mod._msg_ids = data["msg_ids"]
    system = data["system"]
    system.reattach()
    system.sim.cycle = data["run"]["cycle"]
    return data


# ----------------------------------------------------------------------
# File format.
# ----------------------------------------------------------------------

def write_checkpoint(path: str, payload: bytes, *, kind: str,
                     config_hash: str, cycle: int) -> None:
    """Atomically publish ``payload`` with a versioned, checksummed header."""
    header = json.dumps({
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "config": config_hash,
        "cycle": cycle,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }).encode()
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<I", len(header)))
            handle.write(header)
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def read_checkpoint(path: str, *, kind: Optional[str] = None,
                    config_hash: Optional[str] = None) -> Tuple[dict, bytes]:
    """Validate and read a checkpoint file -> ``(header, payload)``.

    Every failure mode raises its own typed error naming the file and
    the exact mismatch; a checkpoint is never silently reinterpreted.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < len(MAGIC) + 4 or not raw.startswith(MAGIC):
        raise CorruptCheckpointError(
            f"{path} is not a checkpoint file (bad magic)"
        )
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    header_end = len(MAGIC) + 4 + header_len
    if header_end > len(raw):
        raise CorruptCheckpointError(
            f"{path} is truncated inside its header "
            f"({len(raw)} bytes, header ends at {header_end})"
        )
    try:
        header = json.loads(raw[len(MAGIC) + 4:header_end])
    except ValueError as exc:
        raise CorruptCheckpointError(
            f"{path} has an unparsable header: {exc}"
        ) from exc
    if header.get("schema") != SCHEMA_VERSION:
        raise IncompatibleCheckpointError(
            f"{path} has schema {header.get('schema')!r}; this build "
            f"reads schema {SCHEMA_VERSION}"
        )
    if kind is not None and header.get("kind") != kind:
        raise IncompatibleCheckpointError(
            f"{path} is a {header.get('kind')!r} checkpoint, expected "
            f"{kind!r}"
        )
    if config_hash is not None and header.get("config") != config_hash:
        raise IncompatibleCheckpointError(
            f"{path} was captured under a different configuration "
            f"(fingerprint {header.get('config')!r}, expected "
            f"{config_hash!r}); refusing to resume"
        )
    payload = raw[header_end:]
    if len(payload) != header.get("payload_bytes"):
        raise CorruptCheckpointError(
            f"{path} is truncated: payload is {len(payload)} bytes, "
            f"header promises {header.get('payload_bytes')}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CorruptCheckpointError(
            f"{path} failed its checksum (payload sha256 {digest[:12]}..., "
            f"header promises {str(header.get('payload_sha256'))[:12]}...)"
        )
    return header, payload
