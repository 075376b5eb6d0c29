"""Deterministic fault injection for the NoC + circuit machinery.

Each :class:`FaultKind` breaks exactly one conservation law, so the
validation table (:mod:`repro.validate.scenarios`) can prove that every
checker of :class:`~repro.validate.invariants.InvariantMonitor` detects
its fault class (and, via clean runs, that none of them false-positives).

Injection is seeded through :class:`~repro.sim.rng.DeterministicRng`
(stream ``fault/<kind>``), so a given ``(kind, seed)`` always corrupts
the same resource at the same cycle - a failing row is exactly
reproducible.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.circuits.table import CircuitEntry
from repro.noc.router import OUT_SHIFT, post
from repro.sim.rng import DeterministicRng


class FaultKind(enum.Enum):
    DROP_RESERVATION = "drop_reservation"
    DUP_RESERVATION = "dup_reservation"
    LEAK_CREDIT = "leak_credit"
    CORRUPT_WINDOW = "corrupt_window"
    STUCK_PORT = "stuck_port"
    DELAY_LINK = "delay_link"
    DROP_FLIT = "drop_flit"


#: How far a delayed channel pushes its queued flits (cycles).
LINK_DELAY = 1_000_000


class FaultInjector:
    """Applies one fault of ``kind`` to ``net`` at/after ``at_cycle``.

    Call :meth:`tick` once per cycle; the injector retries every cycle
    from ``at_cycle`` until a suitable target exists (e.g. a live
    reservation to drop), then records what it broke in ``description``
    and goes quiet.
    """

    def __init__(self, net, kind: FaultKind, seed: int = 1,
                 at_cycle: int = 200) -> None:
        self.net = net
        self.kind = kind
        self.at_cycle = at_cycle
        self.rng = DeterministicRng(seed).stream(f"fault/{kind.value}")
        self.applied = False
        self.applied_cycle: Optional[int] = None
        self.description: Optional[dict] = None

    def tick(self, cycle: int) -> bool:
        """Try to apply the fault; True the cycle it lands."""
        if self.applied or cycle < self.at_cycle:
            return False
        description = self._APPLY[self.kind](self, cycle)
        if description is None:
            return False
        description["fault"] = self.kind.value
        description["cycle"] = cycle
        self.description = description
        self.applied = True
        self.applied_cycle = cycle
        return True

    # -- helpers -------------------------------------------------------
    def _newest_reserved_hop(self):
        """(origin, hop-node, hop-port, key) of the youngest live origin
        whose reservation is still present in a router table."""
        best = None
        tables = self.net.policy.tables
        stride = self.net.core.stride
        for ni in self.net.interfaces:
            for key, origin in ni.origin_table.items():
                walk = getattr(origin, "walk", None)
                if walk is None:
                    continue
                for hop in walk.hops:
                    if not hop.reserved:
                        continue
                    if key not in tables[hop.node * stride + hop.in_port]:
                        continue
                    candidate = (origin.created_cycle, hop.node,
                                 hop.in_port, key)
                    if best is None or candidate[0] > best[0]:
                        best = candidate
        return best

    def _loaded_channel(self):
        """A seeded pick among the router-bound calendar keys with flits
        on the wire, as ``(key, its (due, position) entries in due
        order)``."""
        ni_base = self.net.core.ni_base
        entries = {}
        for due, bucket in sorted(self.net.core.flits.items()):
            for index, (key, _flit) in enumerate(bucket):
                if key < ni_base:
                    entries.setdefault(key, []).append((due, index))
        if not entries:
            return None
        keys = sorted(entries)
        key = keys[self.rng.randrange(len(keys))]
        return key, entries[key]

    # -- fault classes -------------------------------------------------
    def _apply_drop_reservation(self, cycle: int) -> Optional[dict]:
        best = self._newest_reserved_hop()
        if best is None:
            return None
        _created, node, port, key = best
        del self.net.policy.tables[node * self.net.core.stride + port][key]
        return {"node": node, "port": self.net.topo.port_name(port),
                "key": list(key)}

    def _apply_dup_reservation(self, cycle: int) -> Optional[dict]:
        best = self._newest_reserved_hop()
        if best is None:
            return None
        _created, node, port, key = best
        router = self.net.routers[node]
        tables = self.net.policy.tables
        base = node * self.net.core.stride
        entry = tables[base + port][key]
        others = [p for p in router.ports if p != port]
        if not others:
            return None
        target = others[self.rng.randrange(len(others))]
        clone = CircuitEntry(
            key=entry.key, in_port=target, out_port=entry.out_port,
            built_cycle=cycle, window_start=entry.window_start,
            window_end=entry.window_end, vc_index=entry.vc_index,
            fwd_reserved=entry.fwd_reserved, fwd_vc=entry.fwd_vc,
        )
        tables[base + target][key] = clone
        return {"node": node, "port": self.net.topo.port_name(port),
                "dup_port": self.net.topo.port_name(target),
                "key": list(key)}

    def _apply_leak_credit(self, cycle: int) -> Optional[dict]:
        bufferless = self.net.policy.bufferless_vcs()
        candidates = []
        for router in self.net.routers:
            for port in router.ports:
                if port >= self.net.topo.local_base:
                    continue
                for vn_row in router.outputs[port].vcs:
                    for out_vc in vn_row:
                        if (out_vc.vn, out_vc.index) in bufferless:
                            continue
                        if out_vc.credits > 0:
                            candidates.append((router, port, out_vc))
        if not candidates:
            return None
        router, port, out_vc = candidates[self.rng.randrange(len(candidates))]
        out_vc.credits -= 1
        return {"node": router.node,
                "port": self.net.topo.port_name(port),
                "vn": out_vc.vn, "vc": out_vc.index}

    def _apply_corrupt_window(self, cycle: int) -> Optional[dict]:
        candidates = []
        for port_key, table in enumerate(self.net.policy.tables):
            if not table:
                continue
            for entry in table.values():
                if entry.timed and entry.live(cycle):
                    candidates.append((port_key, entry))
        if not candidates:
            return None
        port_key, entry = candidates[self.rng.randrange(len(candidates))]
        node, port = divmod(port_key, self.net.core.stride)
        # Stretch the window far into the future, then invert it: the
        # entry stays live (won't self-expire before a check) yet is
        # structurally impossible.
        entry.window_end = entry.window_end + 50_000
        entry.window_start = entry.window_end + 97
        return {"node": node, "port": self.net.topo.port_name(port),
                "key": list(entry.key),
                "window": [entry.window_start, entry.window_end]}

    def _apply_stuck_port(self, cycle: int) -> Optional[dict]:
        # A central router sees traffic from every quadrant, so a stalled
        # head flit is guaranteed under any sustained workload.
        topo = self.net.topo
        node = topo.central_router()
        router = self.net.routers[node]
        ports = [p for p in router.ports if p < topo.local_base]
        if not ports:
            return None
        stuck = ports[self.rng.randrange(len(ports))]
        # Every cycle's crossbar claims start with the output taken.
        self.net.core.claims_floor[node] |= 1 << (OUT_SHIFT + stuck)
        return {"node": node, "port": topo.port_name(stuck)}

    def _take(self, due: int, index: int) -> tuple:
        """Remove and return entry ``index`` of calendar bucket ``due``."""
        calendar = self.net.core.flits
        entry = calendar[due].pop(index)
        if not calendar[due]:
            del calendar[due]
        return entry

    def _apply_delay_link(self, cycle: int) -> Optional[dict]:
        loaded = self._loaded_channel()
        if loaded is None:
            return None
        key, entries = loaded
        # Later positions first, so earlier indexes stay valid.
        for due, index in sorted(entries, reverse=True):
            post(self.net.core.flits, due + LINK_DELAY,
                 self._take(due, index))
        return {"link": self.net.channel_label(key), "delay": LINK_DELAY,
                "flits": len(entries)}

    def _apply_drop_flit(self, cycle: int) -> Optional[dict]:
        loaded = self._loaded_channel()
        if loaded is None:
            return None
        key, entries = loaded
        due, index = entries[self.rng.randrange(len(entries))]
        _key, flit = self._take(due, index)
        return {"link": self.net.channel_label(key), "kind": flit.msg.kind,
                "uid": flit.msg.uid, "flit_index": flit.index}

    #: What each fault class applies.
    _APPLY = {
        FaultKind.DROP_RESERVATION: _apply_drop_reservation,
        FaultKind.DUP_RESERVATION: _apply_dup_reservation,
        FaultKind.LEAK_CREDIT: _apply_leak_credit,
        FaultKind.CORRUPT_WINDOW: _apply_corrupt_window,
        FaultKind.STUCK_PORT: _apply_stuck_port,
        FaultKind.DELAY_LINK: _apply_delay_link,
        FaultKind.DROP_FLIT: _apply_drop_flit,
    }
