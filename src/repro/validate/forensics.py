"""Deadlock and invariant-violation forensics.

When a run dies - :class:`~repro.sim.kernel.DeadlockError` from the
progress watchdog or :class:`~repro.validate.invariants.InvariantViolation`
from the monitor - this module turns the frozen network into an
actionable crash report:

* the **wait-for graph** over blocked VCs (who is waiting on whose
  buffer credits / output-VC allocation), plus the first cycle found in
  it, which names the deadlocked resource loop directly;
* a **structured JSON report** (counters, blocked VCs with ages, NI
  queue depths, live circuit entries, optional coherence state);
* an **ASCII mesh dump** reusing :func:`repro.telemetry.utilization_heatmap`.

Reports are saved under ``out/crash/<spec>.json`` by the parallel
harness so a million-run campaign never loses a failure silently.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.noc.vc import VcStage
from repro.validate.invariants import by_key

#: Cap on per-section list sizes so a pathological dump stays readable.
MAX_ITEMS = 64


def _vc_id(net, node: int, port: int, vn: int, vc: int) -> str:
    return f"router{node}.{net.topo.port_name(port)}.vn{vn}.vc{vc}"


def build_wait_graph(net) -> List[Dict[str, str]]:
    """Edges ``{src, dst, reason}`` between blocked VCs.

    An ACTIVE VC with no downstream credits waits on the downstream
    input VC it feeds - unless the router core's calendar already holds
    a credit on its way back for it; a VC stuck in VC allocation waits
    on whoever currently owns the output VCs it could be granted.
    """
    edges: List[Dict[str, str]] = []
    local_base = net.topo.local_base
    stride = net.core.stride
    returning = {key: {(c.vn, c.vc) for c in credits}
                 for key, credits in by_key(net.core.credits).items()}
    for router in net.routers:
        for port, unit in router._input_units:
            for vn_row in unit.vcs:
                for vc in vn_row:
                    if not vc.buffer:
                        continue
                    src = _vc_id(net, router.node, port, vc.vn, vc.index)
                    if (
                        vc.stage is VcStage.ACTIVE
                        and vc.route is not None
                        and vc.route < local_base
                        and vc.out_vc is not None
                        and not vc.granted_pending
                    ):
                        out_vc = router.outputs[vc.route].vcs[vc.vn][vc.out_vc]
                        back = returning.get(router.node * stride + vc.route,
                                             ())
                        if out_vc.credits <= 0 \
                                and (vc.vn, vc.out_vc) not in back:
                            down = net.topo.neighbor(router.node, vc.route)
                            edges.append({
                                "src": src,
                                "dst": _vc_id(net, down,
                                              net.topo.opposite(vc.route),
                                              vc.vn, vc.out_vc),
                                "reason": "no downstream buffer credits",
                            })
                    elif vc.stage is VcStage.VA and vc.route is not None:
                        for index in net.policy.allocatable_vcs(vc.vn):
                            out_vc = router.outputs[vc.route].vcs[vc.vn][index]
                            owner = out_vc.allocated_to
                            if owner is None:
                                continue
                            if (
                                isinstance(owner, tuple)
                                and len(owner) == 3
                                and isinstance(owner[0], int)
                            ):
                                dst = _vc_id(net, router.node, owner[0],
                                             owner[1], owner[2])
                            else:
                                # e.g. fragmented gap-hop ownership tokens
                                dst = f"token:{owner!r}"
                            edges.append({
                                "src": src,
                                "dst": dst,
                                "reason": (
                                    f"output "
                                    f"{net.topo.port_name(vc.route)} "
                                    f"vn{vc.vn} "
                                    f"vc{index} allocated elsewhere"
                                ),
                            })
    return edges


def find_cycle(edges: List[Dict[str, str]]) -> Optional[List[str]]:
    """First dependency cycle in the wait-for graph, as a node list."""
    adjacency: Dict[str, List[str]] = {}
    for edge in edges:
        adjacency.setdefault(edge["src"], []).append(edge["dst"])
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in adjacency}
    for root in adjacency:
        if color[root] != WHITE:
            continue
        path: List[str] = []
        stack: List = [(root, iter(adjacency[root]))]
        color[root] = GRAY
        path.append(root)
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child in adjacency and color[child] == WHITE:
                    color[child] = GRAY
                    path.append(child)
                    stack.append((child, iter(adjacency[child])))
                    advanced = True
                    break
                if color.get(child) == GRAY:
                    return path[path.index(child):] + [child]
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def blocked_vcs(net, cycle: Optional[int] = None) -> List[dict]:
    """Snapshot of every occupied input VC, oldest head first."""
    rows: List[dict] = []
    for router in net.routers:
        for port, unit in router._input_units:
            for vn_row in unit.vcs:
                for vc in vn_row:
                    if not vc.buffer:
                        continue
                    head, arrival, _credit_vc = vc.buffer[0]
                    rows.append({
                        "vc": _vc_id(net, router.node, port, vc.vn,
                                     vc.index),
                        "stage": str(vc.stage),
                        "occupancy": len(vc.buffer),
                        "route": (None if vc.route is None
                                  else net.topo.port_name(vc.route)),
                        "out_vc": vc.out_vc,
                        "head_kind": head.msg.kind,
                        "head_uid": head.msg.uid,
                        "head_age": None if cycle is None else cycle - arrival,
                    })
    rows.sort(key=lambda row: -(row["head_age"] or 0))
    return rows


class CrashReport:
    """Structured post-mortem: ``data`` (JSON-safe dict) + ASCII rendering."""

    def __init__(self, data: dict) -> None:
        self.data = data

    def to_json(self) -> dict:
        return self.data

    def ascii(self) -> str:
        data = self.data
        lines = [
            f"== crash report: {data.get('kind')} at cycle "
            f"{data.get('cycle')} ==",
            str(data.get("error")),
            "",
            data.get("mesh_dump") or "(no mesh dump)",
            "",
            f"in flight: {data.get('in_flight')}, live circuit entries: "
            f"{data.get('live_circuit_entries')}",
        ]
        wait_cycle = data.get("wait_cycle")
        if wait_cycle:
            lines.append("wait-for cycle: " + " -> ".join(wait_cycle))
        for row in (data.get("blocked_vcs") or [])[:8]:
            lines.append(
                f"  {row['vc']}: {row['head_kind']} uid={row['head_uid']} "
                f"stage={row['stage']} age={row['head_age']}"
            )
        return "\n".join(lines)


def crash_report(
    net,
    system=None,
    error=None,
    cycle: Optional[int] = None,
    spec_key: Optional[str] = None,
) -> CrashReport:
    """Build a :class:`CrashReport` from a frozen network/system."""
    from repro.telemetry import utilization_heatmap

    if cycle is None:
        cycle = getattr(error, "cycle", None)
    edges = build_wait_graph(net)
    blocked = blocked_vcs(net, cycle=cycle)
    net.stats.flush()  # drain batched hot counters before reading them
    counters = {
        key: value
        for key, value in sorted(net.stats.counters.items())
        if key.startswith(("noc.", "circuit.")) and value
    }
    data = {
        "kind": type(error).__name__ if error is not None else "snapshot",
        "error": str(error) if error is not None else None,
        "check": getattr(error, "check", None),
        "cycle": cycle,
        "spec": spec_key,
        "in_flight": net.in_flight(),
        "live_circuit_entries": net.live_circuit_entries(cycle or 0),
        "counters": counters,
        "blocked_vcs": blocked[:MAX_ITEMS],
        "blocked_vc_count": len(blocked),
        "wait_edges": edges[:MAX_ITEMS],
        "wait_edge_count": len(edges),
        "wait_cycle": find_cycle(edges),
        "ni_queues": [
            {
                "node": ni.node,
                "req": len(ni.req_queue),
                "reply_pending": len(ni.reply_pending),
                "reply": len(ni.reply_queue),
                "held": len(ni.held),
                "origins": len(ni.origin_table),
            }
            for ni in net.interfaces
            if ni.pending_work()
        ][:MAX_ITEMS],
        "mesh_dump": utilization_heatmap(net),
    }
    if system is not None:
        data["protocol"] = {
            "l1_pending": {
                tile.node: list(tile.l1.pending)
                for tile in system.tiles
                if tile.l1 is not None and tile.l1.pending is not None
            },
            "l2_txns": {
                tile.node: {
                    hex(addr): txn.kind.name
                    for addr, txn in tile.l2.txns.items()
                }
                for tile in system.tiles
                if tile.l2 is not None and tile.l2.txns
            },
        }
    return CrashReport(data)


def save_crash_report(report, directory: str, name: str) -> str:
    """Write ``report`` (CrashReport or plain dict) as JSON; return the path."""
    data = report.to_json() if hasattr(report, "to_json") else dict(report)
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in name)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{safe}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=str)
    return path
