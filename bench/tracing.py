"""In-memory spans for the traced pass, written as Chrome-trace JSON.

A span is (name, start, end, parent, workload id).  Spans stay in memory
until the pass ends.  A layer's self time is its span's duration minus the
part of it its child spans cover.

Simulator layers have no intervals of their own: the benchmark attaches
``KernelProfiler`` and gets seconds per component class.  ``aggregate``
records those as child spans laid end to end from the parent's start, so
they take part in the self-time table and show in the trace viewer; their
``args`` say they are aggregates.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "aggregate", "cursor")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 aggregate: bool = False) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.aggregate = aggregate
        #: Where the next aggregate child of this span starts.
        self.cursor = start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished child of the open span from two timestamps
        (``time.perf_counter``) the caller took anyway."""
        span = Span(name, start, self._stack[-1])
        span.end = end
        self.spans.append(span)

    def aggregate(self, name: str, seconds: float) -> None:
        """Record ``seconds`` of summed work inside the open span."""
        index = self._stack[-1]
        parent = self.spans[index]
        span = Span(name, parent.cursor, index, aggregate=True)
        span.end = parent.cursor = parent.cursor + seconds
        self.spans.append(span)

    def self_times(self) -> Dict[str, float]:
        """Self seconds summed per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        table: Dict[str, float] = {}
        for span, inside in zip(self.spans, covered):
            table[span.name] = table.get(span.name, 0.0) \
                + span.seconds - inside
        return table

    def root_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.parent is None)

    def write(self, path: str) -> None:
        events = []
        for span in self.spans:
            events.append({
                "name": span.name, "ph": "X", "pid": 1,
                "tid": self.workload,
                "ts": (span.start - self._origin) * 1e6,
                "dur": span.seconds * 1e6,
                "args": {
                    "parent": (self.spans[span.parent].name
                               if span.parent is not None else None),
                    "aggregate": span.aggregate,
                },
            })
        with open(path, "w") as handle:
            json.dump({
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "selfTimes": self.self_times(),
                "wallSeconds": self.root_seconds(),
            }, handle, indent=1)
            handle.write("\n")

    def table(self) -> str:
        total = self.root_seconds()
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1])
        lines = [f"{'span':<34}{'self s':>10}{'share':>8}"]
        for name, seconds in rows:
            share = seconds / total if total else 0.0
            lines.append(f"{name:<34}{seconds:>10.4f}{share:>8.1%}")
        return "\n".join(lines)
