"""Wire protocol of the job daemon: newline-delimited JSON.

One request per connection for the unary ops (``submit`` / ``status`` /
``results`` / ``info`` / ``shutdown``); the ``stream`` op holds the
connection open and the server pushes one event object per line until
the job leaves the running states.

The transport is a unix-domain socket (address = filesystem path) or TCP
(address = ``host:port``) -- :func:`parse_address`,
:func:`connect_address` and :func:`bind_address` hide the difference.

:class:`~repro.harness.experiment.RunSpec` objects cross the wire as
plain dicts (:func:`spec_to_json` / :func:`spec_from_json`); the
:class:`~repro.telemetry.TelemetryConfig` rides along minus its
``on_sample`` callback, which is process-local by nature (the daemon
installs its own forwarding callback worker-side).
"""

from __future__ import annotations

import json
import os
import socket
import stat
from dataclasses import asdict
from typing import Optional, Tuple, Union

from repro.config import ConfigError
from repro.harness.experiment import RunSpec
from repro.noc.topology import TOPOLOGY_CHOICES, topology_grid_side
from repro.sim.config import Variant

#: Protocol revision; bumped on incompatible message-shape changes.
PROTOCOL_VERSION = 1

#: Longest frame (one JSON line) either side accepts.  A 22-workload x
#: 14-variant result batch is ~2 MB; anything near this bound is not a
#: message of this protocol.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ServiceError(RuntimeError):
    """The daemon answered with an error, or a peer sent a frame that is
    not a message of this protocol."""


#: Fields of TelemetryConfig that serialise (everything but on_sample).
_TELEMETRY_FIELDS = (
    "metrics", "spans", "profile", "interval", "per_router",
    "span_limit", "out_dir", "trace_dir",
)


def spec_to_json(spec: RunSpec) -> dict:
    data = {
        "n_cores": spec.n_cores,
        "variant": spec.variant.value,
        "workload": spec.workload,
        "seed": spec.seed,
        "measure_instructions": spec.measure_instructions,
        "warmup_instructions": spec.warmup_instructions,
        "topology": spec.topology,
    }
    if spec.telemetry is not None:
        telemetry = asdict(spec.telemetry)
        data["telemetry"] = {
            name: telemetry[name] for name in _TELEMETRY_FIELDS
        }
    return data


def _field(data: dict, name: str, convert, *default):
    """``convert(data[name])`` (``default`` when given and absent); a
    missing or malformed value is a :class:`ServiceError` naming it."""
    try:
        value = data.get(name, *default) if default else data[name]
        if convert in (str, dict) and not isinstance(value, convert):
            raise TypeError(f"got a {type(value).__name__}")
        return convert(value)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ServiceError(
            f"spec field {name!r}: {type(exc).__name__}: {exc}") from None


def spec_from_json(data: dict) -> RunSpec:
    """The :class:`RunSpec` a wire dict names, if a worker can run it.
    Anything else raises :class:`ServiceError` naming the bad field: a
    malformed field, a topology outside :data:`TOPOLOGY_CHOICES` (``""``
    is mesh), an ``n_cores`` that does not tile it, or an unknown
    program.  It reads no environment."""
    if not isinstance(data, dict):
        raise ServiceError(f"spec is a JSON {type(data).__name__}, "
                           "not an object")
    telemetry = data.get("telemetry")
    if telemetry is not None:
        from repro.telemetry import TelemetryConfig

        given = _field(data, "telemetry", dict)
        telemetry = TelemetryConfig(**{
            name: given[name] for name in _TELEMETRY_FIELDS if name in given})
    spec = RunSpec(
        n_cores=_field(data, "n_cores", int),
        variant=_field(data, "variant", Variant),
        workload=_field(data, "workload", str),
        seed=_field(data, "seed", int, 1),
        measure_instructions=_field(data, "measure_instructions", int),
        warmup_instructions=_field(data, "warmup_instructions", int),
        telemetry=telemetry,
        topology=_field(data, "topology", str, ""),
    )
    # imported here: a process that only sends specs loads no cpu.trace
    from repro.cpu.workloads import workload_by_name

    if spec.topology not in ("",) + TOPOLOGY_CHOICES:
        raise ServiceError(
            f"spec field 'topology': unknown topology {spec.topology!r} "
            f"(choose from {', '.join(TOPOLOGY_CHOICES)})")
    try:
        topology_grid_side(spec.topology or "mesh", spec.n_cores)
    except ConfigError as exc:
        raise ServiceError(f"spec field 'n_cores': {exc}") from None
    try:
        workload_by_name(spec.workload)
    except ConfigError as exc:
        raise ServiceError(f"spec field 'workload': {exc}") from None
    return spec


# ----------------------------------------------------------------------
# Addresses.
# ----------------------------------------------------------------------

def parse_address(address: str) -> Union[str, Tuple[str, int]]:
    """``host:port`` -> tuple for TCP; anything else is a socket path."""
    if ":" in address and not address.startswith(("/", ".")):
        host, _, port = address.rpartition(":")
        return (host or "127.0.0.1", int(port))
    return address


def bind_address(address: str) -> socket.socket:
    """Listen on ``address``.  A unix-socket path is reclaimed only when
    it holds a socket nobody answers on (a dead daemon's leftover); a
    live daemon or any other kind of file there is a
    :class:`~repro.config.ConfigError`, and nothing is removed."""
    parsed = parse_address(address)
    if isinstance(parsed, tuple):
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(parsed)
    else:
        try:
            mode = os.lstat(parsed).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None:
            from repro.service.client import ServiceClient

            if not stat.S_ISSOCK(mode):
                raise ConfigError(
                    "service", "--socket / REPRO_SERVICE",
                    f"daemon socket path {parsed!r} exists and is not a "
                    "socket; refusing to replace it")
            if ServiceClient(parsed, connect_timeout=2.0).ping():
                raise ConfigError(
                    "service", "--socket / REPRO_SERVICE",
                    f"a job daemon is already serving {parsed!r}")
            os.unlink(parsed)
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(parsed)
    server.listen(64)
    return server


def connect_address(address: str,
                    timeout: Optional[float] = None) -> socket.socket:
    parsed = parse_address(address)
    if isinstance(parsed, tuple):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(parsed)
    return sock


# ----------------------------------------------------------------------
# Framing.
# ----------------------------------------------------------------------

def send_json(handle, obj: dict) -> None:
    """Write one JSON object as a single line and flush."""
    handle.write(json.dumps(obj, separators=(",", ":")).encode() + b"\n")
    handle.flush()


def recv_json(handle) -> Optional[dict]:
    """Read one JSON line; None on a cleanly closed connection.  Raises
    :class:`ServiceError` for a frame over :data:`MAX_FRAME_BYTES`, one
    that does not decode, or one that is not a JSON object."""
    line = handle.readline(MAX_FRAME_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise ServiceError(
            f"frame exceeds {MAX_FRAME_BYTES} bytes; not a repro message")
    try:
        message = json.loads(line.decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON or depth
        raise ServiceError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise ServiceError(
            f"frame is a JSON {type(message).__name__}, not an object")
    return message
