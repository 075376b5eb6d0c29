"""Interactive observation probes.

These are the hand-held instruments of the telemetry subsystem - small,
composable and simulation-neutral:

* :func:`attach_tracer` streams every crossbar traversal to a callback or
  a log list - invaluable when debugging circuit reservations.
* :func:`utilization_heatmap` renders per-router crossbar activity as an
  ASCII grid, showing where traffic (and therefore contention)
  concentrates on the mesh.
* :func:`sleep_report` summarises the activity-driven kernel's wake/sleep
  state - who is asleep, until when, and how much ticking was skipped.
* :class:`LoadSampler` is a minimal periodic load probe; the full
  :class:`~repro.telemetry.metrics.MetricRegistry` supersedes it for
  multi-stream time series but it remains the cheapest single-number
  answer to "how loaded is this network?".
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.network import Network

TraceEvent = Tuple[int, int, str, str, int]  # cycle, node, port, kind, uid


def attach_tracer(net: "Network",
                  callback: Optional[Callable] = None) -> List[TraceEvent]:
    """Attach a flit tracer to every router of ``net``.

    With no callback, events are appended to the returned list as
    ``(cycle, node, out_port, msg kind, msg uid)`` tuples.  Pass an
    explicit callback for custom handling (it receives the raw
    ``(cycle, router, out_port, flit)``).

    Tracers compose: attaching while another tracer is installed chains
    the new hook after the existing one instead of replacing it, and
    :func:`detach_tracer` pops only the most recent attachment.
    """
    events: List[TraceEvent] = []

    def default(cycle, router, out_port, flit):
        events.append(
            (cycle, router.node, router.mesh.port_name(out_port),
             flit.msg.kind, flit.msg.uid)
        )

    hook = callback if callback is not None else default
    for router in net.routers:
        previous = router.tracer

        def chained(cycle, r, out_port, flit, _prev=previous, _hook=hook):
            if _prev is not None:
                _prev(cycle, r, out_port, flit)
            _hook(cycle, r, out_port, flit)

        chained._prev_tracer = previous
        router.tracer = chained
    return events


def detach_tracer(net: "Network") -> None:
    """Detach the most recently attached tracer, restoring its predecessor."""
    for router in net.routers:
        router.tracer = getattr(router.tracer, "_prev_tracer", None)


def utilization_heatmap(net: "Network", width: int = 6) -> str:
    """ASCII grid of per-router crossbar traversal counts."""
    grid_w, grid_h = net.topo.grid_shape
    peak = max((r.forwarded for r in net.routers), default=0) or 1
    lines = [f"crossbar traversals per router (peak {peak})"]
    for y in range(grid_h):
        cells = []
        for x in range(grid_w):
            router = net.routers[net.topo.router_at(x, y)]
            cells.append(str(router.forwarded).rjust(width))
        lines.append("".join(cells))
    return "\n".join(lines)


def reset_utilization(net: "Network") -> None:
    for router in net.routers:
        router.forwarded = 0


def sleep_report(sim) -> str:
    """Summarise a Simulator's activity-driven sleep state.

    One line per sleeping kernel slot (class + node when available, with
    its scheduled wake cycle or ``ext`` for externally-woken sleepers),
    preceded by the aggregate skip counters.  Every router and NI sits
    behind the one ``RouterCore`` slot, so a sleeping NoC shows as one
    ``RouterCore`` line.  Intended for interactive debugging and deadlock
    forensics: a component that should be working but shows up here
    points straight at broken wake bookkeeping.
    """
    sleepers = sim.sleeping_slots()
    lines = [
        f"cycle {sim.cycle}: {len(sleepers)} asleep, "
        f"{sim.ticks_run} ticks run, {sim.cycles_skipped} cycles "
        f"skipped (skip ratio {sim.skip_ratio():.3f})"
    ]
    for component, wake_at in sleepers:
        name = type(component).__name__
        node = getattr(component, "node", None)
        label = name if node is None else f"{name}[{node}]"
        due = "ext" if wake_at is None else f"@{wake_at}"
        lines.append(f"  {label} {due}")
    return "\n".join(lines)


class LoadSampler:
    """Periodic sampler of network activity (a Clocked component).

    Add to a simulator (``sim.add(LoadSampler(net))``) to record injected
    flits per interval - the time series behind "the network is lightly
    loaded" style claims (the paper quotes < 4 flits/100 cycles/node).
    """

    def __init__(self, net: "Network", interval: int = 100) -> None:
        if interval < 1:
            raise ValueError("interval must be positive")
        self.net = net
        self.interval = interval
        self.samples: List[float] = []
        self._last_count = 0

    def tick(self, cycle: int) -> None:
        if cycle == 0 or cycle % self.interval:
            return
        count = self.net.stats.counter("noc.flits_injected")
        delta = count - self._last_count
        self._last_count = count
        self.samples.append(delta / self.net.topo.n_nodes)

    def next_wake(self, cycle: int) -> int:
        """Sleep until the next sampling boundary (counters accumulate
        in the stats object regardless, so skipped cycles lose nothing)."""
        return cycle + self.interval - cycle % self.interval

    def mean_load(self) -> float:
        """Average injected flits per interval per node."""
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def sparkline(self, width: int = 60) -> str:
        """Compact ASCII time series of the per-node load."""
        if not self.samples:
            return "(no samples)"
        ramp = " .:-=+*#%@"
        data = self.samples[-width:]
        peak = max(data) or 1.0
        chars = [ramp[min(len(ramp) - 1, int(v / peak * (len(ramp) - 1)))]
                 for v in data]
        return ("".join(chars)
                + f"  (peak {peak:.2f} flits/{self.interval}cyc/node)")
