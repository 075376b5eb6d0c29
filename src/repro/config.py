"""Unified configuration resolution for every ``REPRO_*`` knob.

This module is the only place in ``src/`` that reads a ``REPRO_*``
environment variable (``tests/test_config_overrides.py`` enforces it
with an AST walk):

* a declarative :data:`SETTINGS` registry (name, environment variable,
  type, default, constraint) covering every knob, test hooks included;
* :func:`overrides` -- resolve the whole configuration with explicit
  precedence **kwargs > environment > defaults**, returning per-setting
  values *and* the source each value came from;
* :func:`resolve` -- resolve a single setting under the same rules;
  call sites pass their config field or keyword argument as
  ``override`` and add only the structural checks that are theirs alone
  (e.g. shards <= router-grid height);
* the one typed :class:`ConfigError` (a ``ValueError`` subclass, so
  ``except ValueError`` call sites keep working) that names the
  offending source: the environment variable for environment values,
  the config field or ``<name>= (keyword)`` for overrides.

``python -m repro.harness env`` prints the effective resolved
configuration as a table (value + source per setting), and the CLI's
``--help`` environment section is :func:`env_help`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ConfigError",
    "Resolved",
    "SETTINGS",
    "describe",
    "env_help",
    "overrides",
    "resolve",
    "setting",
]


class ConfigError(ValueError):
    """A configuration value failed validation.

    ``source`` names where the offending value came from -- the
    environment variable (e.g. ``"REPRO_JOBS"``), the config field (e.g.
    ``"config.noc.topology"``) or the keyword argument (e.g.
    ``"jobs= (keyword)"``) -- and is always embedded in the message so
    the user can find and fix it.
    """

    def __init__(self, name: str, source: str, message: str) -> None:
        super().__init__(message)
        self.setting = name
        self.source = source


# ----------------------------------------------------------------------
# Value parsers.  Each takes (raw, source, setting) and either returns
# the typed value or raises a ConfigError naming the source.
# ----------------------------------------------------------------------

_FLAG_TRUE = {"1", "true", "yes", "on"}
_FLAG_FALSE = {"", "0", "false", "no", "off"}


def _parse_bool(raw, source: str, setting: "Setting"):
    if isinstance(raw, bool):
        return raw
    value = str(raw).strip().lower()
    if value in _FLAG_TRUE:
        return True
    if value in _FLAG_FALSE:
        return False
    raise ConfigError(
        setting.name, source,
        f"{source} must be one of 1/0/true/false/yes/no/on/off, got {raw!r}"
    )


def _parse_int(minimum: Optional[int] = None, hint: str = ""):
    def parse(raw, source: str, setting: "Setting"):
        try:
            value = int(raw)
        except (TypeError, ValueError):
            raise ConfigError(
                setting.name, source,
                f"{source} must be an integer{hint}, got {raw!r}"
            ) from None
        if minimum is not None and value < minimum:
            raise ConfigError(
                setting.name, source,
                f"{source} must be >= {minimum}{hint}, got {raw!r}"
            )
        return value

    return parse


def _parse_float(minimum_exclusive: Optional[float] = None, hint: str = ""):
    def parse(raw, source: str, setting: "Setting"):
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise ConfigError(
                setting.name, source,
                f"{source} must be a number{hint}, got {raw!r}"
            ) from None
        if not math.isfinite(value) or (
            minimum_exclusive is not None and value <= minimum_exclusive
        ):
            raise ConfigError(
                setting.name, source,
                f"{source} must be a finite number"
                + (f" > {minimum_exclusive:g}" if minimum_exclusive is not None
                   else "")
                + f"{hint}, got {raw!r}"
            )
        return value

    return parse


def _parse_str(raw, source: str, setting: "Setting"):
    return str(raw)


def _parse_topology(raw, source: str, setting: "Setting"):
    value = str(raw).strip().lower()
    from repro.noc.topology import TOPOLOGY_CHOICES

    if value not in TOPOLOGY_CHOICES:
        raise ConfigError(
            setting.name, source,
            f"{source} must be one of {', '.join(TOPOLOGY_CHOICES)}, "
            f"got {raw!r}"
        )
    return value


# Bespoke parsers: their messages explain what the value multiplies or
# what 0 means (tests match on them).

def _parse_jobs(raw, source: str, setting: "Setting"):
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            setting.name, source,
            f"{source} must be a non-negative integer "
            f"(0 = one worker per CPU core), got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigError(
            setting.name, source,
            f"{source} / --jobs must be >= 0 "
            f"(0 = one worker per CPU core), got {value}"
        )
    return value


def _parse_scale(raw, source: str, setting: "Setting"):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            setting.name, source,
            f"{source} must be a number (simulation-length multiplier, "
            f"e.g. {source}=0.5), got {raw!r}"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(
            setting.name, source,
            f"{source} must be a finite number > 0 (it multiplies the "
            f"measured instruction quanta), got {raw!r}"
        )
    return value


# ----------------------------------------------------------------------
# The registry.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Setting:
    """One configurable knob: identity, type and constraint."""

    name: str
    env: str
    default: object
    parse: Callable
    help: str


#: Every REPRO_* knob, in display order.  ``default`` is the effective
#: value when neither a keyword override nor the environment supplies
#: one (some call sites apply further context-specific defaults, e.g.
#: ``resolve_jobs(default=...)``).  The ``help`` texts are the CLI's
#: environment help (:func:`env_help`).
SETTINGS: Dict[str, Setting] = {}


def _register(name: str, env: str, default, parse, help_text: str) -> None:
    SETTINGS[name] = Setting(name, env, default, parse, help_text)


_register("jobs", "REPRO_JOBS", None, _parse_jobs,
          "worker processes for sweeps (0 = one per CPU core)")
_register("scale", "REPRO_SCALE", 1.0, _parse_scale,
          "simulation-length multiplier")
_register("full", "REPRO_FULL", False, _parse_bool,
          "sweep all 22 workloads instead of the 6-workload subset")
_register("cache", "REPRO_CACHE", "", _parse_str,
          "result store directory, reused across invocations")
_register("check", "REPRO_CHECK", False, _parse_bool,
          "attach the invariant monitor inside every experiment")
_register("check_interval", "REPRO_CHECK_INTERVAL", 2000,
          _parse_int(1, " (cycles between invariant checks)"),
          "cycles between invariant monitor audits")
_register("failfast", "REPRO_FAILFAST", False, _parse_bool,
          "abort sweeps on the first failing run")
_register("crash_dir", "REPRO_CRASH_DIR", os.path.join("out", "crash"),
          _parse_str, "directory for crash reports")
_register("shards", "REPRO_SHARDS", 1,
          _parse_int(1, " (single-run mesh shards)"),
          "split each run across N worker processes (bit-identical)")
_register("checkpoint", "REPRO_CHECKPOINT", 0,
          _parse_int(1, " (cycles between durable checkpoints)"),
          "cycles between durable checkpoints (unset = off)")
_register("checkpoint_dir", "REPRO_CHECKPOINT_DIR",
          os.path.join("out", "checkpoint"), _parse_str,
          "checkpoint root directory")
_register("resume", "REPRO_RESUME", False, _parse_bool,
          "resume interrupted runs from their checkpoints")
_register("topology", "REPRO_TOPOLOGY", "mesh", _parse_topology,
          "network topology (mesh, torus or cmesh)")
_register("shard_timeout", "REPRO_SHARD_TIMEOUT", 1200.0,
          _parse_float(0.0, " of seconds"),
          "seconds before a silent shard worker is declared dead")
_register("shard_respawns", "REPRO_SHARD_RESPAWNS", 2,
          _parse_int(0, ""),
          "respawn budget per shard worker")
_register("service", "REPRO_SERVICE", "", _parse_str,
          "job-daemon address (unix socket path or host:port); "
          "when set, repro.api routes work through the daemon")
_register("service_workers", "REPRO_SERVICE_WORKERS", 0,
          _parse_int(0, " (0 = one per CPU core)"),
          "daemon worker-fleet size (0 = one per CPU core)")
_register("shard_pidfile", "REPRO_SHARD_PIDFILE", "", _parse_str,
          "test hook: file the pid of every spawned worker is appended to")
_register("chaos_kill_after", "REPRO_CHAOS_KILL_AFTER", 0,
          _parse_int(1, " (checkpoint captures)"),
          "test hook: SIGKILL the run after its Nth checkpoint capture")


@dataclass(frozen=True)
class Resolved:
    """One resolved setting: its value and where it came from."""

    name: str
    value: object
    source: str  # "default", the env var name, or the override's source


def setting(name: str) -> Setting:
    """The registry entry for ``name`` (KeyError for unknown settings)."""
    return SETTINGS[name]


def resolve(name: str, override=None, default=None,
            source: Optional[str] = None):
    """Resolve one setting: ``override`` > environment > default.

    ``default`` replaces the registry default when not None (call sites
    with context-dependent defaults use it).  ``source`` names where the
    override came from when it is not a keyword argument (e.g.
    ``"config.noc.topology"``).  Raises :class:`ConfigError` naming the
    offending source on a malformed value.
    """
    return _resolve(name, override, default, source).value


def _resolve(name: str, override=None, default=None,
             source: Optional[str] = None) -> Resolved:
    entry = SETTINGS[name]
    if override is not None:
        source = source or f"{name}= (keyword)"
        return Resolved(name, entry.parse(override, source, entry), source)
    raw = os.environ.get(entry.env)
    if raw is not None and raw.strip() != "":
        return Resolved(name, entry.parse(raw, entry.env, entry), entry.env)
    value = default if default is not None else entry.default
    return Resolved(name, value, "default")


def overrides(**kwargs) -> Dict[str, Resolved]:
    """Resolve every registered setting (kwargs > environment > defaults).

    Unknown keyword names raise :class:`ConfigError` immediately, so a
    typo cannot silently fall through to the environment.
    """
    unknown = sorted(set(kwargs) - set(SETTINGS))
    if unknown:
        raise ConfigError(
            unknown[0], f"{unknown[0]}= (keyword)",
            f"unknown setting(s) {', '.join(unknown)}; valid settings: "
            f"{', '.join(sorted(SETTINGS))}"
        )
    return {
        name: _resolve(name, kwargs.get(name))
        for name in SETTINGS
    }


def describe(**kwargs) -> List[Tuple[str, str, str, str]]:
    """Rows for the ``repro.harness env`` display.

    Returns ``(name, env var, rendered value, source)`` per setting; a
    malformed environment value renders as ``<error: ...>`` instead of
    aborting the whole table.
    """
    rows = []
    for name, entry in SETTINGS.items():
        try:
            resolved = _resolve(name, kwargs.get(name))
            value, source = resolved.value, resolved.source
        except ConfigError as exc:
            value, source = f"<error: {exc}>", entry.env
        rows.append((name, entry.env, repr(value), source))
    return rows


def env_help() -> str:
    """The CLI's environment help: one line per registered variable."""
    width = max(len(entry.env) for entry in SETTINGS.values())
    lines = ["environment (resolved through repro.config; the `env` "
             "command shows the effective values):"]
    for entry in SETTINGS.values():
        default = f" (default {entry.default})" if entry.default else ""
        lines.append(f"  {entry.env:<{width}s}  {entry.help}{default}")
    return "\n".join(lines)
