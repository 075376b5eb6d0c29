"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import json
import os
import time
from collections import Counter
from typing import Dict, Iterable, List, Set, Tuple

import pytest

from repro.noc.flit import Message
from repro.noc.network import Network
from repro.sim.config import SystemConfig, Variant
from repro.validate import conformance

CONFORMANCE_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                                  "conformance.json")


#: ``[count, seconds, last start]`` of the session's generation-2
#: collections (collections never nest).
_FULL_COLLECTIONS = [0, 0.0, 0.0]


def _time_full_collections(phase: str, info: dict) -> None:
    if info["generation"] != 2:
        return
    if phase == "start":
        _FULL_COLLECTIONS[2] = time.perf_counter()
    else:
        _FULL_COLLECTIONS[0] += 1
        _FULL_COLLECTIONS[1] += time.perf_counter() - _FULL_COLLECTIONS[2]


def _untime_collections_in_child() -> None:
    # A forked worker's SIGALRM timeout must not land in this callback,
    # where its exception would be swallowed as unraisable.
    if _time_full_collections in gc.callbacks:
        gc.callbacks.remove(_time_full_collections)


def pytest_configure(config) -> None:
    gc.callbacks.append(_time_full_collections)
    os.register_at_fork(after_in_child=_untime_collections_in_child)


def pytest_collection_finish(session) -> None:
    """Freeze what collection built (test modules, goldens, hypothesis
    state), so each full collection a computed run makes scans only the
    objects created after it."""
    gc.collect()
    gc.freeze()


def pytest_terminal_summary(terminalreporter) -> None:
    count, seconds, _ = _FULL_COLLECTIONS
    terminalreporter.write_line(
        f"gc: {count} generation-2 collections took {seconds:.1f} s")


def surviving_pids(pids: Iterable[int], timeout: float) -> Set[int]:
    """The ``pids`` still alive after waiting up to ``timeout`` seconds."""
    alive = set(pids)
    deadline = time.monotonic() + timeout
    while alive and time.monotonic() < deadline:
        for pid in list(alive):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                alive.discard(pid)
        time.sleep(0.2)
    return alive


class ScriptedChip:
    """A Network whose nodes answer requests like a trivial protocol.

    Every request delivered to a node triggers a reply of ``reply_flits``
    flits back to the requestor after ``turnaround`` cycles.  This isolates
    NoC/circuit behaviour from the coherence protocol.
    """

    def __init__(self, n_cores: int = 16, variant: Variant = Variant.BASELINE,
                 turnaround: int = 7, reply_flits: int = 5,
                 reply_kind: str = "L2_REPLY") -> None:
        self.config = SystemConfig(n_cores=n_cores).with_variant(variant)
        self.net = Network(self.config)
        self.turnaround = turnaround
        self.reply_flits = reply_flits
        self.reply_kind = reply_kind
        self.cycle = 0
        self.delivered: Dict[int, Message] = {}
        self.deliveries: List[Tuple[int, Message]] = []
        self._timers: List[Tuple[int, Message]] = []
        for node in range(self.net.topo.n_nodes):
            self.net.set_deliver(node, self._on_deliver)

    # ------------------------------------------------------------------
    def _on_deliver(self, msg: Message, cycle: int) -> None:
        self.deliveries.append((cycle, msg))
        self.delivered[msg.uid] = msg
        if msg.vn == 0 and msg.builds_circuit:
            reply = Message(msg.dest, msg.src, 1, self.reply_flits,
                            self.reply_kind)
            reply.circuit_eligible = True
            reply.circuit_key = msg.circuit_key
            self._timers.append((cycle + self.turnaround, reply))

    def request(self, src: int, dest: int, addr: int = 0x40,
                builds_circuit: bool = True, n_flits: int = 1) -> Message:
        msg = Message(src, dest, 0, n_flits, "REQUEST")
        msg.builds_circuit = builds_circuit
        msg.circuit_key = (src, addr, msg.uid)
        msg.reply_flits = self.reply_flits
        msg.expected_turnaround = self.turnaround
        self.net.inject(msg, self.cycle)
        return msg

    def send_reply(self, src: int, dest: int, kind: str = "ACK",
                   n_flits: int = 1, eligible: bool = False) -> Message:
        msg = Message(src, dest, 1, n_flits, kind)
        msg.circuit_eligible = eligible
        self.net.inject(msg, self.cycle)
        return msg

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.cycle += 1
            for item in [t for t in self._timers if t[0] == self.cycle]:
                self._timers.remove(item)
                self.net.inject(item[1], self.cycle)
            self.net.core.tick(self.cycle)

    def run_until_drained(self, max_cycles: int = 5000) -> None:
        for _ in range(max_cycles):
            if not self._timers and self.net.in_flight() == 0:
                return
            self.run(1)
        raise AssertionError("network did not drain")

    @property
    def stats(self):
        return self.net.stats


@pytest.fixture
def chip():
    """Factory fixture: chip(variant=..., n_cores=...) -> ScriptedChip."""
    def make(variant: Variant = Variant.BASELINE, n_cores: int = 16,
             **kwargs) -> ScriptedChip:
        return ScriptedChip(n_cores=n_cores, variant=variant, **kwargs)
    return make


@pytest.fixture
def shard_reads(monkeypatch):
    """``Counter`` of result-store shard parses, by shard file name.

    Every store read goes through ``_ShardFile.load_all``; the fixture
    wraps it for the test's duration.
    """
    from repro.harness import cache

    reads: Counter = Counter()
    load_all = cache._ShardFile.load_all

    def counted(shard):
        reads[os.path.basename(shard.path)] += 1
        return load_all(shard)

    monkeypatch.setattr(cache._ShardFile, "load_all", counted)
    return reads


@pytest.fixture(scope="session")
def _conformance_golden():
    """``cell id -> digest`` of every pinned conformance cell.  The
    digests were generated by a second router / NI pipeline (since
    deleted) under a kernel that ticked every component every cycle, so
    they are what the one pipeline and the activity kernel are held to.
    Regenerate (only when the model's *intended* behaviour changes) by
    running the tests that pin cells with ``REPRO_REGOLDEN=1``: each cell
    is then re-run plainly and the file rewritten at session end."""
    with open(CONFORMANCE_GOLDEN) as handle:
        golden = json.load(handle)
    yield golden
    if os.environ.get("REPRO_REGOLDEN"):
        with open(CONFORMANCE_GOLDEN, "w") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")


@pytest.fixture(scope="session")
def _plain_witness():
    return {}


@pytest.fixture
def pinned(_conformance_golden, _plain_witness):
    """``pinned(cell, *modes, workdir=None)``: run ``cell`` in each mode
    and require the witness to hash to the cell's committed golden digest
    (``api`` / ``daemon`` witnesses, which are ``RunResult``-shaped, to
    ``diff`` clean against the cell's plain run instead).  A mismatch is
    explained by a diff against the cell's plain (``fast``) run, so the
    message names the first diverging counter and whether the engine of
    the mode or the simulator itself moved.  Returns the last witness."""
    def check(cell, *modes, workdir=None):
        if os.environ.get("REPRO_REGOLDEN"):
            _conformance_golden[cell.id] = conformance.digest(
                conformance.run(cell))
        assert cell.id in _conformance_golden, (
            f"{cell!r} has no golden digest; see _conformance_golden")
        for mode in modes:
            measured = conformance.run(cell, mode, workdir)
            if {"api", "daemon"} & set(mode.split("+")):
                if cell not in _plain_witness:
                    _plain_witness[cell] = check(cell, "fast")
                problem = conformance.diff(measured, _plain_witness[cell])
            elif conformance.digest(measured) == _conformance_golden[cell.id]:
                problem = None
            else:
                problem = conformance.diff(measured, conformance.run(cell)) \
                    or ("a plain run agrees with it: the simulator moved, or "
                        "the golden is stale")
            assert not problem, f"{cell!r} in mode {mode!r}: {problem}"
        return measured
    return check
