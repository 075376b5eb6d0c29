"""Memory-trace files: record synthetic streams, replay captured traces.

The paper drives its simulations from real applications under Simics.
Users who *do* have access to real traces (Pin, DynamoRIO, gem5, ...) can
feed them to this reproduction through a simple text format, one access
per line::

    # repro-trace v1 cores=16 line=64
    <core> <gap> <r|w> <hex address>

``gap`` is the number of non-memory instructions retired before the
access.  :class:`TraceRecorder` also writes this format from the built-in
synthetic streams, so traces can be captured once and replayed exactly
(or shared between machines).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.cpu.trace import AccessStream

_HEADER_PREFIX = "# repro-trace v1"

Access = Tuple[int, bool, int]

#: The largest address a trace may name (the cache arrays are int64).
_MAX_ADDR = (1 << 63) - 1


class TraceFileError(ValueError):
    """Malformed trace file."""


class TraceRecorder:
    """Capture per-core access sequences into a trace file."""

    def __init__(self, n_cores: int, line_bytes: int) -> None:
        self.n_cores = n_cores
        self.line_bytes = line_bytes
        self._accesses: List[Tuple[int, Access]] = []

    def record(self, core: int, access: Access) -> None:
        if not 0 <= core < self.n_cores:
            raise ValueError(f"core {core} out of range")
        self._accesses.append((core, access))

    def record_stream(self, core: int, stream: AccessStream, count: int) -> None:
        """Sample ``count`` accesses of a synthetic stream for ``core``."""
        for _ in range(count):
            self.record(core, stream.next_access())

    def write(self, path: Union[str, Path]) -> None:
        with open(path, "w") as handle:
            handle.write(
                f"{_HEADER_PREFIX} cores={self.n_cores} "
                f"line={self.line_bytes}\n"
            )
            for core, (gap, is_write, addr) in self._accesses:
                rw = "w" if is_write else "r"
                handle.write(f"{core} {gap} {rw} {addr:x}\n")

    def __len__(self) -> int:
        return len(self._accesses)


class TraceFileStream:
    """Per-core access stream replaying a recorded sequence.

    When the recorded sequence runs out the stream loops (traces are
    usually captured from stationary regions; looping keeps long
    simulations possible with short captures).
    """

    def __init__(self, accesses: List[Access], core: int) -> None:
        if not accesses:
            raise TraceFileError(f"core {core} has no accesses in the trace")
        self.core = core
        self._accesses = accesses
        self._next = 0
        self.wraps = 0

    def next_access(self) -> Access:
        access = self._accesses[self._next]
        self._next += 1
        if self._next == len(self._accesses):
            self._next = 0
            self.wraps += 1
        return access


class FileTraceWorkload:
    """Workload backed by a trace file (drop-in for WorkloadProfile)."""

    suite = "trace"

    def __init__(self, path: Union[str, Path], name: Optional[str] = None) -> None:
        self.path = Path(path)
        self.name = name or self.path.stem
        self.n_cores, self.line_bytes, self._per_core = _parse(self.path)

    def streams(self, n_cores: int, line_bytes: int, rng) -> List[TraceFileStream]:
        if n_cores != self.n_cores:
            raise TraceFileError(
                f"trace was captured for {self.n_cores} cores, "
                f"system has {n_cores}"
            )
        if line_bytes != self.line_bytes:
            raise TraceFileError(
                f"trace line size {self.line_bytes} != system {line_bytes}"
            )
        return [
            TraceFileStream(self._per_core.get(core, []), core)
            for core in range(n_cores)
        ]


def _header_value(path: Path, lineno: int, token: str) -> int:
    """A positive ``key=<int>`` header value."""
    value = token.partition("=")[2]
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number <= 0:
        raise TraceFileError(
            f"{path}:{lineno}: header {token!r} needs a positive integer")
    return number


def _parse(path: Path) -> Tuple[int, int, Dict[int, List[Access]]]:
    per_core: Dict[int, List[Access]] = {}
    n_cores = line_bytes = None
    # an undecodable byte becomes U+FFFD, so it fails its line's parse
    with open(path, encoding="utf-8", errors="replace") as handle:
        for lineno, raw in enumerate(handle, 1):
            text = raw.strip()
            if not text:
                continue
            if text.startswith("#"):
                if text.startswith(_HEADER_PREFIX):
                    for token in text[len(_HEADER_PREFIX):].split():
                        key = token.partition("=")[0]
                        if key == "cores":
                            n_cores = _header_value(path, lineno, token)
                        elif key == "line":
                            line_bytes = _header_value(path, lineno, token)
                continue
            parts = text.split()
            if len(parts) != 4:
                raise TraceFileError(f"{path}:{lineno}: expected 4 fields")
            try:
                core = int(parts[0])
                gap = int(parts[1])
                rw = parts[2]
                addr = int(parts[3], 16)
            except ValueError as exc:
                raise TraceFileError(f"{path}:{lineno}: {exc}") from exc
            if rw not in ("r", "w"):
                raise TraceFileError(f"{path}:{lineno}: bad r/w flag {rw!r}")
            if gap < 0 or addr < 0 or core < 0:
                raise TraceFileError(f"{path}:{lineno}: negative field")
            if addr > _MAX_ADDR:
                raise TraceFileError(
                    f"{path}:{lineno}: address {addr:#x} needs more than "
                    f"63 bits")
            per_core.setdefault(core, []).append((gap, rw == "w", addr))
    if n_cores is None or line_bytes is None:
        raise TraceFileError(f"{path}: missing '{_HEADER_PREFIX}' header")
    for core in per_core:
        if core >= n_cores:
            raise TraceFileError(f"{path}: core {core} >= cores={n_cores}")
    return n_cores, line_bytes, per_core


def capture_workload(workload, n_cores: int, line_bytes: int, rng,
                     accesses_per_core: int, path: Union[str, Path]) -> None:
    """Record a synthetic workload into a replayable trace file."""
    recorder = TraceRecorder(n_cores, line_bytes)
    for core, stream in enumerate(workload.streams(n_cores, line_bytes, rng)):
        recorder.record_stream(core, stream, accesses_per_core)
    recorder.write(path)
