"""The machine under the benchmark: calibration, environment, scratch space."""

from __future__ import annotations

import heapq
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


#: Iterations of the three loops of one calibration slice: about 7 ms each
#: on the authoring host.
INT_ITERS, WALK_ITERS, EVENT_ITERS = 70_000, 80_000, 13_000
SLICE_ITERS = INT_ITERS + WALK_ITERS + EVENT_ITERS

#: Slice speed of the host every reported time is stated for: the authoring
#: host in a quiet hour.
REFERENCE_ITERS_PER_S = 7.5e6


class _Node:
    __slots__ = ("peers", "credit")

    def __init__(self) -> None:
        self.peers: List["_Node"] = []
        self.credit = 4

    def step(self, amount: int) -> "_Node":
        self.credit = (self.credit + amount) & 7
        return self.peers[self.credit & 3]


def calibration_slice() -> float:
    """Wall seconds a fixed piece of pure-Python work takes right now.

    Three loops of about equal length: the integer loop of
    ``tools/bench_hotpath.py``'s ``calibrate()``, method calls walking a
    small object graph, and a heap-and-dict event loop.  What slows the
    simulator on a shared host (neighbours on the same cores and caches)
    slows these by the same factor; the integer loop alone slows by less
    (README).  Wall clock, not CPU time, for the same reason.
    """
    nodes = [_Node() for _ in range(2048)]
    for index, node in enumerate(nodes):
        node.peers = [nodes[(index * step + 1) & 2047]
                      for step in (3, 5, 7, 11)]
    heap = [(cycle, cycle, [cycle]) for cycle in range(64)]
    state: Dict[int, list] = {}
    x = 1
    start = time.perf_counter()
    for _ in range(INT_ITERS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    for amount in range(WALK_ITERS):
        node = node.step(amount)
    for _ in range(EVENT_ITERS):
        cycle, ident, payload = heapq.heappop(heap)
        state[ident & 255] = payload
        heapq.heappush(heap, (cycle + (ident * 7 & 15) + 1, ident + 1,
                              [cycle, ident]))
    return time.perf_counter() - start


def iters_per_s(slice_s: float) -> float:
    return SLICE_ITERS / slice_s


def reference_seconds(seconds: float, slices: Sequence[float]) -> float:
    """``seconds`` restated for the reference host: divided by how much
    slower than it the calibration slices around them ran."""
    return seconds * iters_per_s(statistics.fmean(slices)) \
        / REFERENCE_ITERS_PER_S


def stolen_seconds() -> float:
    """Seconds the hypervisor has so far kept this machine's CPUs from
    running when they had work (``steal`` in ``/proc/stat``, in ticks of
    10 ms); 0 where the kernel does not say."""
    try:
        with open("/proc/stat") as handle:
            return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Laps:
    """Times the consecutive parts of one operation, with a calibration
    slice before the first part and after each (outside the timings).

    ``seconds`` leaves out what the hypervisor stole during a part
    (``stolen``), up to half of it: stolen time comes in pieces of tenths
    of a second that hit a part far more often than a 20 ms slice, so the
    slices cannot account for it."""

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self.stolen: List[float] = []
        self.slices: List[float] = [calibration_slice()]
        self._begin()

    def _begin(self) -> None:
        self._stolen = stolen_seconds()
        self._start = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self._start
        stolen = min(stolen_seconds() - self._stolen, elapsed / 2)
        self.seconds.append(elapsed - stolen)
        self.stolen.append(stolen)
        self.slices.append(calibration_slice())
        self._begin()


def import_repro():
    """Put this checkout's ``src`` first on the path and import ``repro``.

    Refuses a ``repro`` from anywhere else: the numbers must describe the
    source tree the benchmark sits in.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    origin = os.path.abspath(repro.__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"repro came from {origin}, not from {SRC}")
    return repro


def scrub_env() -> None:
    """Drop every ``REPRO_*`` variable: all the settings of the
    ``repro.config.SETTINGS`` registry carry that prefix."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]


def make_scratch() -> str:
    """A private directory under ``bench/out`` for one run."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="t", dir=OUT_DIR)
    use_scratch(scratch)
    return scratch


def use_scratch(scratch: str) -> None:
    """Make ``scratch`` the TMPDIR too, so stores, sockets, telemetry,
    crash output and the temporary files of ``repro`` itself all stay
    inside the checkout."""
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = None


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def jobs() -> int:
    return min(2, os.cpu_count() or 1)


def commit_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout; never look above it
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def describe() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "commit": commit_sha(),
        "platform": platform.platform(),
    }
