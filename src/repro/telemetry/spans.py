"""Message-lifecycle spans and the Chrome-trace (Perfetto) exporter.

A :class:`SpanRecorder` is the observer object routers and network
interfaces call through their ``observer`` hook (guarded by
``observer is not None``, so disabled telemetry costs one attribute test
per event site).  It assembles, per message uid, the lifecycle

    enqueue -> plan -> inject -> (reservation placed / circuit hit /
    fallback) -> eject

and exports it two ways:

* :meth:`chrome_trace` / :meth:`write_chrome_trace`: the Chrome trace
  event format (``{"traceEvents": [...]}``) that https://ui.perfetto.dev
  loads directly.  One process per source node, one track per virtual
  network; each message is a complete ("X") slice spanning enqueue to
  eject with a nested slice for its in-network flight, and circuit
  reservations/hits appear as instant events on the owning router's
  process.  Cycles are exported as microseconds (1 cycle == 1 us).
* :meth:`breakdown_table`: a per-class latency breakdown (queue vs.
  network, packet vs. circuit) as an ASCII table.

Recording is bounded by ``limit``: once that many messages have been
opened, *new* messages are counted in :attr:`dropped` instead of
recorded (in-flight ones still complete), keeping memory use flat on
long runs.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.sim.stats import Histogram, MeanStat


class MessageSpan:
    """Lifecycle record of one message (one leg; scroungers re-open)."""

    __slots__ = (
        "uid", "kind", "src", "dest", "vn", "enqueued", "planned", "plan_kind",
        "injected", "on_circuit", "ejected", "cls", "outcome", "hits",
        "reservations", "relayed",
    )

    def __init__(self, uid: int, kind: str, src: int, dest: int, vn: int,
                 enqueued: int) -> None:
        self.uid = uid
        self.kind = kind
        self.src = src
        self.dest = dest
        self.vn = vn
        self.enqueued = enqueued
        self.planned: Optional[int] = None
        self.plan_kind: Optional[str] = None
        self.injected: Optional[int] = None
        self.on_circuit = False
        self.ejected: Optional[int] = None
        self.cls: Optional[str] = None
        self.outcome: Optional[str] = None
        #: (router node, cycle) of each circuit-check hit along the path.
        self.hits: List = []
        #: (router node, cycle) of each reservation placed by this request.
        self.reservations: List = []
        self.relayed = False

    @property
    def complete(self) -> bool:
        return self.ejected is not None

    @property
    def queue_cycles(self) -> Optional[int]:
        if self.injected is None:
            return None
        return self.injected - self.enqueued

    @property
    def net_cycles(self) -> Optional[int]:
        if self.ejected is None or self.injected is None:
            return None
        return self.ejected - self.injected


class SpanRecorder:
    """Observer collecting message-lifecycle spans from routers and NIs."""

    def __init__(self, limit: int = 50_000) -> None:
        if limit < 1:
            raise ValueError("limit must be positive")
        self.limit = limit
        self.open: Dict[int, MessageSpan] = {}
        self.closed: List[MessageSpan] = []
        #: Messages not recorded because ``limit`` was already reached.
        self.dropped = 0

    def _span(self, msg) -> Optional[MessageSpan]:
        return self.open.get(msg.uid)

    # -- NI events -----------------------------------------------------
    def ni_enqueue(self, ni, msg, cycle: int) -> None:
        if len(self.closed) + len(self.open) >= self.limit:
            self.dropped += 1
            return
        self.open[msg.uid] = MessageSpan(
            msg.uid, str(msg.kind), msg.src, msg.dest, msg.vn, cycle
        )

    def ni_plan(self, ni, msg, plan, cycle: int) -> None:
        span = self._span(msg)
        if span is not None:
            span.planned = cycle
            span.plan_kind = plan.kind

    def ni_inject(self, ni, msg, cycle: int, circuit: bool) -> None:
        span = self._span(msg)
        if span is not None:
            span.injected = cycle
            span.on_circuit = circuit

    def ni_relay(self, ni, msg, cycle: int) -> None:
        """Scrounger reached its intermediate hop; close this leg and
        re-open a fresh span for the relayed leg."""
        span = self.open.pop(msg.uid, None)
        if span is not None:
            span.ejected = cycle
            span.cls = "relay"
            span.relayed = True
            self.closed.append(span)
        self.ni_enqueue(ni, msg, cycle)

    def ni_eject(self, ni, msg, cycle: int, cls: str) -> None:
        span = self.open.pop(msg.uid, None)
        if span is not None:
            span.ejected = cycle
            span.cls = cls
            span.outcome = msg.outcome
            self.closed.append(span)

    # -- router events -------------------------------------------------
    def router_reservation(self, router, msg, cycle: int) -> None:
        span = self._span(msg)
        if span is not None:
            span.reservations.append((router.node, cycle))

    def router_circuit_hit(self, router, flit, cycle: int) -> None:
        span = self._span(flit.msg)
        if span is not None and flit.is_head:
            span.hits.append((router.node, cycle))

    # -- export --------------------------------------------------------
    def spans(self) -> List[MessageSpan]:
        """All recorded spans, completed first, in completion order."""
        return self.closed + list(self.open.values())

    def chrome_trace(self) -> dict:
        """The span set in Chrome trace event format (Perfetto-loadable)."""
        events: List[dict] = []
        nodes = sorted({s.src for s in self.spans()})
        for node in nodes:
            events.append({
                "name": "process_name", "ph": "M", "pid": node,
                "args": {"name": f"node{node}"},
            })
            for vn, label in ((0, "vn0 requests"), (1, "vn1 replies")):
                events.append({
                    "name": "thread_name", "ph": "M", "pid": node, "tid": vn,
                    "args": {"name": label},
                })
        for span in self.closed:
            args = {
                "uid": span.uid,
                "dest": span.dest,
                "plan": span.plan_kind,
                "outcome": span.outcome,
                "queue_cycles": span.queue_cycles,
                "net_cycles": span.net_cycles,
                "circuit_hits": len(span.hits),
            }
            events.append({
                "name": f"{span.kind} {span.src}->{span.dest}",
                "cat": span.cls or "msg",
                "ph": "X",
                "ts": span.enqueued,
                "dur": max(span.ejected - span.enqueued, 1),
                "pid": span.src,
                "tid": span.vn,
                "args": args,
            })
            if span.injected is not None and span.injected < span.ejected:
                events.append({
                    "name": "circuit flight" if span.on_circuit else "net flight",
                    "cat": "network",
                    "ph": "X",
                    "ts": span.injected,
                    "dur": span.ejected - span.injected,
                    "pid": span.src,
                    "tid": span.vn,
                    "args": {"uid": span.uid},
                })
            for node, cycle in span.reservations:
                events.append({
                    "name": "reservation", "cat": "circuit", "ph": "i",
                    "ts": cycle, "pid": span.src, "tid": span.vn, "s": "t",
                    "args": {"uid": span.uid, "router": node},
                })
            for node, cycle in span.hits:
                events.append({
                    "name": "circuit hit", "cat": "circuit", "ph": "i",
                    "ts": cycle, "pid": span.src, "tid": span.vn, "s": "t",
                    "args": {"uid": span.uid, "router": node},
                })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "spans": len(self.closed),
                "dropped": self.dropped,
                "unit": "1 trace us == 1 simulated cycle",
            },
        }

    def write_chrome_trace(self, path: str) -> str:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        # ``json.dumps`` without ``indent`` runs the C encoder; ``json.dump``
        # and any ``indent`` fall back to the pure-Python one.
        text = json.dumps(self.chrome_trace(), separators=(",", ":"),
                          sort_keys=True)
        with open(path, "w") as handle:
            handle.write(text)
        return path

    def breakdown_table(self) -> str:
        """Per-class latency breakdown of the completed spans."""
        queue: Dict[str, MeanStat] = {}
        net: Dict[str, MeanStat] = {}
        net_hist: Dict[str, Histogram] = {}
        hits: Dict[str, int] = {}
        counts: Dict[str, int] = {}
        for span in self.closed:
            cls = span.cls or "?"
            counts[cls] = counts.get(cls, 0) + 1
            if span.queue_cycles is not None:
                queue.setdefault(cls, MeanStat()).add(span.queue_cycles)
            if span.net_cycles is not None:
                net.setdefault(cls, MeanStat()).add(span.net_cycles)
                net_hist.setdefault(cls, Histogram()).add(span.net_cycles)
            hits[cls] = hits.get(cls, 0) + len(span.hits)
        header = (
            f"{'class':<8}{'msgs':>8}{'queue':>9}{'net':>9}"
            f"{'net p95':>9}{'hits/msg':>10}"
        )
        lines = [header, "-" * len(header)]
        for cls in sorted(counts):
            n = counts[cls]
            q = queue.get(cls, MeanStat()).mean
            m = net.get(cls, MeanStat()).mean
            p95 = net_hist[cls].percentile(95) if cls in net_hist else 0.0
            lines.append(
                f"{cls:<8}{n:>8}{q:>9.1f}{m:>9.1f}{p95:>9.1f}"
                f"{hits[cls] / n:>10.2f}"
            )
        if self.dropped:
            lines.append(f"({self.dropped} messages past the "
                         f"{self.limit}-span limit not recorded)")
        return "\n".join(lines)
