"""Four-stage wormhole router with Reactive Circuits support.

The baseline pipeline (paper Table 4 / Fig. 2) is:

    stage 1 - routing computation and input buffering (cycle t)
    stage 2 - virtual-channel allocation                (t+1)
    stage 3 - switch allocation                         (t+2)
    stage 4 - switch traversal                          (t+3)

followed by one link cycle, i.e. 5 cycles/hop for packet-switched flits.
A reply flit whose circuit is reserved at this router bypasses the whole
pipeline: its "Circuit Check" match at the input unit sends it through the
crossbar in its arrival cycle (2 cycles/hop with the link).  The crossbar
prioritises circuit flits; packet flits that already won switch allocation
retry their traversal the next cycle (section 4.3).

:class:`Router` is written for the saturation hot path: dense
port-indexed lists instead of dicts, precomputed route tables, per-unit
round-robin arbiters over integer candidate codes with reused scratch
lists, inlined link drains, and hot counters batched into plain ints
that a registered :class:`~repro.sim.stats.Stats` flusher drains at read
boundaries.  The committed conformance goldens
(``tests/golden/conformance.json``) pin its behaviour, stats and finish
cycles included.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.noc.allocators import RoundRobinArbiter
from repro.noc.flit import Flit
from repro.noc.link import Credit, CreditLink, FlitLink
from repro.noc.routing import route_tables
from repro.noc.topology import Topology
from repro.noc.vc import InputVc, OutputVc, VcStage
from repro.sim.kernel import SimulationError
from repro.sim.stats import Stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuits.table import CircuitTable
    from repro.sim.config import SystemConfig

#: Effectively infinite credit count used for ejection (NI sink) ports.
EJECTION_CREDITS = 1 << 30

_ACTIVE = VcStage.ACTIVE
_VA = VcStage.VA
_IDLE = VcStage.IDLE


class InputUnit:
    """All per-input-port state: VCs, circuit table, ideal-mode wait queue."""

    __slots__ = ("port", "vcs", "circuit_table", "wait_queue", "busy_count",
                 "busy_list", "sa_arb")

    def __init__(self, port: int, vcs: List[List[InputVc]]) -> None:
        self.port = port
        #: vcs[vn][vc_index]
        self.vcs = vcs
        #: Installed by circuit policies that reserve state at routers.
        self.circuit_table: Optional["CircuitTable"] = None
        #: Ideal mode: flits waiting for a free output port (FIFO).
        self.wait_queue: List[Flit] = []
        #: Non-IDLE VCs at this port (lets allocation skip idle ports).
        self.busy_count = 0
        #: The non-IDLE VCs themselves, kept sorted by (vn, index) so the
        #: allocation stages see candidates in the same order a full scan
        #: of ``vcs`` would produce (round-robin decisions depend on it).
        self.busy_list: List[InputVc] = []
        #: Phase-1 switch-allocation arbiter for this port's candidates.
        self.sa_arb = RoundRobinArbiter()


class OutputUnit:
    """Per-output-port state: downstream VC credit/allocation bookkeeping."""

    __slots__ = ("port", "vcs", "sa_arb")

    def __init__(self, port: int, vcs: List[List[OutputVc]]) -> None:
        self.port = port
        self.vcs = vcs
        #: Phase-2 switch-allocation arbiter among contending input ports.
        self.sa_arb = RoundRobinArbiter()


class Router:
    """One NoC router (optimised hot-path pipeline).

    Wiring (set by :class:`~repro.noc.network.Network`): for each port,
    ``in_flit[p]`` delivers flits from the neighbour/NI, ``out_flit[p]``
    carries flits out, ``in_credit[p]`` returns credits for flits we sent
    out of ``p``, and ``out_credit[p]`` returns credits (and undo notices)
    for flits we received on ``p``.

    All six per-port structures are dense lists indexed by the plain-int
    port id, sized to the topology's ``max_radix`` (``None`` where the
    port does not exist / is not wired), so the per-cycle stage loops pay
    a C-level list index instead of a dict hash per access.  Iterate
    present ports via ``self.ports`` or the ``_input_units`` pairs.
    ``node`` is the *router* id; topologies with concentration attach
    several nodes through local ports >= ``topology.local_base``.
    """

    def __init__(self, node: int, mesh: Topology, config: "SystemConfig",
                 policy, stats: Stats) -> None:
        self.node = node
        self.mesh = mesh
        self.config = config
        self.policy = policy
        self.stats = stats
        noc = config.noc
        n_ports = mesh.max_radix
        local_base = mesh.local_base
        self._local_base = local_base
        self.ports: List[int] = mesh.router_ports(node)
        self.inputs: List[Optional[InputUnit]] = [None] * n_ports
        self.outputs: List[Optional[OutputUnit]] = [None] * n_ports
        depth = noc.buffer_depth_flits
        self._bufferless_vcs = policy.bufferless_vcs()  # set of (vn, vc)
        for port in self.ports:
            in_vcs: List[List[InputVc]] = []
            out_vcs: List[List[OutputVc]] = []
            port_bits = port << 8
            for vn, count in enumerate(noc.vcs_per_vn):
                row_in: List[InputVc] = []
                row_out: List[OutputVc] = []
                for index in range(count):
                    vc_depth = 0 if (vn, index) in self._bufferless_vcs else depth
                    ivc = InputVc(vn, index, vc_depth)
                    ivc.rcode = port_bits | ivc.scode
                    ivc.rkey = (port, vn, index)
                    ivc.va_arb = RoundRobinArbiter()
                    row_in.append(ivc)
                    if port >= local_base:
                        credits = EJECTION_CREDITS
                    else:
                        credits = vc_depth
                    ovc = OutputVc(vn, index, credits)
                    ovc.code = port_bits | ovc.code
                    ovc.va_arb = RoundRobinArbiter()
                    row_out.append(ovc)
                in_vcs.append(row_in)
                out_vcs.append(row_out)
            self.inputs[port] = InputUnit(port, in_vcs)
            self.outputs[port] = OutputUnit(port, out_vcs)
        policy.attach_router(self)
        # Channels, wired by the Network (dense, port-indexed).
        self.in_flit: List[Optional[FlitLink]] = [None] * n_ports
        self.out_flit: List[Optional[FlitLink]] = [None] * n_ports
        self.in_credit: List[Optional[CreditLink]] = [None] * n_ports
        self.out_credit: List[Optional[CreditLink]] = [None] * n_ports
        # Precomputed next-hop rows for this router: [vn] -> dest -> port.
        req_table, rep_table = route_tables(mesh, noc.request_xy)
        self._route_rows = (req_table[node], rep_table[node])
        # Pipeline state.  Granted traversals carry the winning InputVc
        # itself so switch traversal skips the unit/vn/index re-lookup.
        self._st_pending: List[Tuple[int, int, InputVc]] = []
        self._st_scratch: List[Tuple[int, int, InputVc]] = []
        self._out_claimed = 0
        self._in_claimed = 0
        #: Count of VCs not in IDLE stage (fast-path idle check).
        self._busy_vcs = 0
        #: Flits/credits in flight toward this router (link watcher).
        self.incoming = 0
        #: Ideal-mode wait queues in use (kept non-empty check cheap).
        self._waiting = 0
        #: DOR orientation shared with the circuit policies.
        self._request_xy = noc.request_xy
        #: Flits forwarded through this crossbar (utilisation heatmaps).
        self.forwarded = 0
        #: Optional debug tracer: fn(cycle, router, out_port, flit).
        self.tracer = None
        #: Optional telemetry span recorder (``repro.telemetry``); hooks
        #: are guarded by ``observer is not None`` so detached telemetry
        #: costs one attribute test per event site.
        self.observer = None
        #: Set by the simulator kernel; links poke it with arrival cycles
        #: so a sleeping router wakes exactly when traffic reaches it.
        self.kernel_wake = None
        # Policy hooks that are no-ops for this variant are skipped at
        # the call site (the flags are static per policy class), and the
        # hook's own first-line guard is hoisted in front of the call:
        # 0 = always call, 1 = only flits riding a circuit, 2 = only
        # reply-VN flits carrying a circuit key.
        self._arrival_hook = (
            policy.handle_arrival if policy.handles_arrivals else None
        )
        self._tail_hook = policy.on_tail_departure if policy.handles_tails else None
        filt = policy.arrival_filter
        self._arrival_filter = (
            1 if filt == "on_circuit" else 2 if filt == "reply_keyed" else 0
        )
        # Reused allocation scratch (never escapes a tick).
        self._sa_codes: List[int] = []
        self._sa_vcs: List[InputVc] = []
        self._sa_out_order: List[int] = []
        self._sa_out_cands: List[List[int]] = [[] for _ in range(n_ports)]
        self._sa_win_vc: List[Optional[InputVc]] = [None] * n_ports
        self._va_codes: List[int] = []
        self._va_objs: List[OutputVc] = []
        self._va_touched: List[OutputVc] = []
        # Hot counters, batched; drained by _flush_counters (registered
        # with the Stats object) at sample/finish boundaries.
        self._c_buffer_writes = 0
        self._c_route = 0
        self._c_buffer_reads = 0
        self._c_xbar = 0
        self._c_link = 0
        self._c_credits = 0
        self._c_sa = 0
        self._c_va = 0
        stats.add_flusher(self._flush_counters)

    def _flush_counters(self) -> None:
        """Drain batched hot counters into the shared Stats dict.

        Only nonzero deltas are written: flushing zeros would create
        counter keys an unbatched run never creates, breaking snapshot
        equality.
        """
        counters = self.stats.counters
        if self._c_buffer_writes:
            counters["noc.buffer_writes"] += self._c_buffer_writes
            self._c_buffer_writes = 0
        if self._c_route:
            counters["noc.route_computations"] += self._c_route
            self._c_route = 0
        if self._c_buffer_reads:
            counters["noc.buffer_reads"] += self._c_buffer_reads
            self._c_buffer_reads = 0
        if self._c_xbar:
            counters["noc.xbar_traversals"] += self._c_xbar
            self._c_xbar = 0
        if self._c_link:
            counters["noc.link_flits"] += self._c_link
            self._c_link = 0
        if self._c_credits:
            counters["noc.credits_sent"] += self._c_credits
            self._c_credits = 0
        if self._c_sa:
            counters["noc.sa_grants"] += self._c_sa
            self._c_sa = 0
        if self._c_va:
            counters["noc.va_grants"] += self._c_va
            self._c_va = 0

    # ------------------------------------------------------------------
    # Helpers used by policies and the network interface machinery.
    # ------------------------------------------------------------------
    def vc(self, port: int, vn: int, index: int) -> InputVc:
        return self.inputs[port].vcs[vn][index]

    def output_vc(self, port: int, vn: int, index: int) -> OutputVc:
        return self.outputs[port].vcs[vn][index]

    def claim_path(self, in_port: int, out_port: int) -> bool:
        """Atomically claim crossbar input+output lines for this cycle."""
        out_bit = 1 << out_port
        in_bit = 1 << in_port
        if (self._out_claimed & out_bit) or (self._in_claimed & in_bit):
            return False
        self._out_claimed |= out_bit
        self._in_claimed |= in_bit
        return True

    def forward_flit(self, out_port: int, flit: Flit, cycle: int) -> None:
        """Send ``flit`` through the crossbar onto ``out_port``'s link."""
        self.out_flit[out_port].send(flit, cycle)
        self.forwarded += 1
        self._c_xbar += 1
        self._c_link += 1
        if self.tracer is not None:
            self.tracer(cycle, self, out_port, flit)

    def return_credit(self, in_port: int, vn: int, vc_index: int, cycle: int) -> None:
        """Return one buffer credit upstream for ``in_port``'s (vn, vc)."""
        self.out_credit[in_port].send_credit(vn, vc_index, cycle)
        self._c_credits += 1

    def send_undo(self, out_port: int, key, cycle: int) -> None:
        """Propagate an undo notice toward the circuit destination."""
        self.out_credit[out_port].send_undo(key, cycle)
        self.stats.bump("circuit.undo_hops")

    def vc_became_busy(self, port: int, vc: InputVc) -> None:
        self._busy_vcs += 1
        unit = self.inputs[port]
        unit.busy_count += 1
        busy = unit.busy_list
        key = (vc.vn, vc.index)
        i = len(busy)
        while i and (busy[i - 1].vn, busy[i - 1].index) > key:
            i -= 1
        busy.insert(i, vc)

    def vc_became_idle(self, port: int, vc: InputVc) -> None:
        self._busy_vcs -= 1
        unit = self.inputs[port]
        unit.busy_count -= 1
        unit.busy_list.remove(vc)

    def route_vn(self, vn: int, dest: int) -> int:
        """Precomputed DOR next hop from this router for ``(vn, dest)``."""
        return self._route_rows[vn][dest]

    def route_reply(self, dest: int) -> int:
        """Reply-VN route from this router toward ``dest``."""
        return self._route_rows[1][dest]

    def finalize_wiring(self) -> None:
        """Precompute hot-loop port/link lists (called once by Network)."""
        self._credit_pulls = [
            (port, self.in_credit[port]) for port in self.ports
            if self.in_credit[port] is not None
        ]
        self._flit_pulls = [
            (port, self.in_flit[port]) for port in self.ports
            if self.in_flit[port] is not None
        ]
        self._input_units = [(port, self.inputs[port]) for port in self.ports]
        # allocatable_vcs() is a static property of the policy; caching it
        # keeps a per-VC virtual call out of the allocation inner loops.
        self._alloc_vn = tuple(
            self.policy.allocatable_vcs(vn)
            for vn in range(len(self.config.noc.vcs_per_vn))
        )

    # ------------------------------------------------------------------
    # Tick.
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """One router cycle: credits, arrivals, traversal, allocation.

        The four stage bodies live inline in this one function: at
        saturation every awake router runs all of them every cycle, and
        the per-stage method dispatch alone was a measurable slice of the
        cycle budget.  Each section is marked with the stage it runs.
        """
        # Idle guard (runs once per awake cycle).
        if not (self._busy_vcs or self._st_pending or self.incoming):
            if not self._waiting:
                return
            for _port, unit in self._input_units:
                if unit.wait_queue:
                    break
            else:
                return
        self._out_claimed = 0
        self._in_claimed = 0
        inputs = self.inputs
        outputs = self.outputs
        policy = self.policy
        # ``incoming`` counts flits+credits queued on our input links, so
        # when it is zero both drain loops would scan empty queues.
        incoming = self.incoming
        if incoming:
            # -- credits ---------------------------------------------------
            removed = 0
            for port, link in self._credit_pulls:
                queue = link._queue
                if not queue or queue[0][0] > cycle:
                    continue
                vcs = outputs[port].vcs
                while queue and queue[0][0] <= cycle:
                    credit = queue.popleft()[1]
                    removed += 1
                    vn = credit.vn
                    if vn is not None:
                        vcs[vn][credit.vc].credits += 1
                    if credit.undo_key is not None:
                        policy.handle_undo(self, port, credit.undo_key, cycle)
            if removed:
                self.incoming -= removed
        if self._waiting:
            policy.retry_waiting(self, cycle)
        if incoming:
            # -- stage 1: arrivals (circuit check, buffering + RC) ---------
            # Policies whose handle_arrival is a no-op (the flag is static
            # per policy class) leave the hook unbound and skip the call.
            arrival_hook = self._arrival_hook
            filt = self._arrival_filter
            route_rows = self._route_rows
            IDLE = _IDLE
            VA = _VA
            removed = 0
            writes = 0
            routes = 0
            for port, link in self._flit_pulls:
                queue = link._queue
                if not queue or queue[0][0] > cycle:
                    continue
                unit = inputs[port]
                port_vcs = unit.vcs
                ptable = unit.circuit_table
                while queue and queue[0][0] <= cycle:
                    flit = queue.popleft()[1]
                    removed += 1
                    msg = flit.msg
                    if arrival_hook is not None:
                        # The filter replicates the hook's first-line early
                        # return, so skipping the call is decision-identical.
                        if filt == 1:
                            handled = flit.on_circuit and arrival_hook(
                                self, port, flit, cycle)
                        elif filt == 2:
                            # Table pre-probe: a pure miss has no side
                            # effects in the hook (fragmented entries are
                            # untimed, so membership == live lookup), and
                            # gap hops at saturation are mostly misses.
                            handled = (msg.vn == 1
                                       and msg.circuit_key is not None
                                       and ptable is not None
                                       and msg.circuit_key in ptable.entries
                                       and arrival_hook(self, port, flit, cycle))
                        else:
                            handled = arrival_hook(self, port, flit, cycle)
                        if handled:
                            if self.observer is not None:
                                self.observer.router_circuit_hit(self, flit, cycle)
                            continue
                    vn = msg.vn
                    dst_vc = flit.dst_vc
                    vc = port_vcs[vn][dst_vc]
                    buf = vc.buffer
                    if len(buf) >= vc.depth:
                        self._overflow(port, flit, vn, dst_vc, vc)
                    buf.append((flit, cycle, dst_vc))
                    writes += 1
                    if flit.is_head and vc.stage is IDLE and len(buf) == 1:
                        # Inlined vc_became_busy (per-packet-head path).
                        self._busy_vcs += 1
                        unit.busy_count += 1
                        busy = unit.busy_list
                        bkey = (vn, dst_vc)
                        i = len(busy)
                        while i and (busy[i - 1].vn,
                                     busy[i - 1].index) > bkey:
                            i -= 1
                        busy.insert(i, vc)
                        vc.route = route_rows[vn][msg.dest]
                        vc.stage = VA
                        vc.ready_cycle = cycle + 1
                        routes += 1
            if removed:
                self.incoming -= removed
                self._c_buffer_writes += writes
                self._c_route += routes
        pending = self._st_pending
        if pending:
            # -- stage 4: switch traversal ---------------------------------
            remaining = self._st_scratch
            out_flit = self.out_flit
            out_credit = self.out_credit
            tail_hook = self._tail_hook
            tracer = self.tracer
            # Fault injection and tests patch claim_path per *instance*;
            # when it is unpatched (no instance attribute shadows the
            # method) the bit tests are inlined on claim-mask locals.
            patched = self.__dict__.get("claim_path")
            if patched is None:
                out_claimed = self._out_claimed
                in_claimed = self._in_claimed
            moved = 0
            for item in pending:
                st_cycle, in_port, vc = item
                if st_cycle > cycle:
                    remaining.append(item)
                    continue
                out_port = vc.route
                if patched is None:
                    out_bit = 1 << out_port
                    in_bit = 1 << in_port
                    if (out_claimed & out_bit) or (in_claimed & in_bit):
                        remaining.append(item)  # crossbar busy (circuit priority)
                        continue
                    out_claimed |= out_bit
                    in_claimed |= in_bit
                elif not patched(in_port, out_port):
                    remaining.append(item)  # crossbar busy (circuit priority)
                    continue
                flit, _arrived, credit_vc = vc.buffer.popleft()
                out_vc_index = vc.out_vc
                flit.dst_vc = out_vc_index if out_vc_index is not None else 0
                # Inlined FlitLink.send / CreditLink.send_credit (one flit
                # out plus one credit back per traversal is the per-flit
                # hot path; the bodies match link.py's exactly).
                link = out_flit[out_port]
                due = cycle + 1 + link.latency
                link._queue.append((due, flit))
                watcher = link.watcher
                if watcher is not None:
                    watcher.incoming += 1
                    wake = watcher.kernel_wake
                    if wake is not None:
                        wake(due)
                moved += 1
                if tracer is not None:
                    tracer(cycle, self, out_port, flit)
                clink = out_credit[in_port]
                cache = clink._cache
                ckey = (vc.vn << 8) | credit_vc
                credit = cache.get(ckey)
                if credit is None:
                    credit = cache[ckey] = Credit(vc.vn, credit_vc)
                due = cycle + 1 + clink.latency
                clink._queue.append((due, credit))
                watcher = clink.watcher
                if watcher is not None:
                    watcher.incoming += 1
                    wake = watcher.kernel_wake
                    if wake is not None:
                        wake(due)
                vc.granted_pending = False
                if flit.is_tail:
                    vc.out_obj.allocated_to = None
                    if tail_hook is not None:
                        tail_hook(self, in_port, flit, cycle)
                    vc.reset_for_next_packet(cycle)
                    if vc.buffer:
                        # Non-atomic buffers: the next packet is already
                        # queued; its head starts route computation now
                        # (the VC stays busy).
                        self._route_compute(vc, vc.buffer[0][0], cycle)
                    else:
                        # Inlined vc_became_idle (per-packet-tail path).
                        self._busy_vcs -= 1
                        iunit = inputs[in_port]
                        iunit.busy_count -= 1
                        iunit.busy_list.remove(vc)
            if patched is None:
                self._out_claimed = out_claimed
                self._in_claimed = in_claimed
            # Recycle the drained list as the next call's scratch.
            del pending[:]
            self._st_pending = remaining
            self._st_scratch = pending
            if moved:
                self.forwarded += moved
                self._c_buffer_reads += moved
                self._c_xbar += moved
                self._c_link += moved
                self._c_credits += moved
        if self._busy_vcs:
            # -- stages 2+3: fused switch + VC allocation ------------------
            # One pass over each port's busy list computes both the SA
            # phase-1 port winners and the VA phase-1 proposals.  The
            # fusion is decision-identical to running the two stages back
            # to back: the scans read disjoint VC sets (stage ACTIVE vs.
            # VA) through disjoint arbiters, and applying the SA grants
            # mutates only ``credits``/``granted_pending``/``_st_pending``,
            # none of which the VA phase reads.  Candidate lists
            # materialise lazily - the common single-candidate case
            # advances the arbiter directly and never appends.
            sa_codes = self._sa_codes
            sa_vcs = self._sa_vcs
            out_order = self._sa_out_order
            out_cands = self._sa_out_cands
            win_vc = self._sa_win_vc
            va_codes = self._va_codes
            va_objs = self._va_objs
            touched = self._va_touched
            alloc_vn = self._alloc_vn
            ACTIVE = _ACTIVE
            VA = _VA
            sa_found = False
            for port, unit in self._input_units:
                busy = unit.busy_list
                if not busy:
                    continue
                sa_first = None
                sa_multi = False
                for vc in busy:
                    if vc.ready_cycle > cycle:
                        continue
                    stage = vc.stage
                    if stage is ACTIVE:
                        if vc.granted_pending:
                            continue
                        buf = vc.buffer
                        if buf and buf[0][1] < cycle and vc.out_obj.credits > 0:
                            if sa_first is None:
                                sa_first = vc
                            else:
                                if not sa_multi:
                                    sa_multi = True
                                    sa_codes.append(sa_first.scode)
                                    sa_vcs.append(sa_first)
                                sa_codes.append(vc.scode)
                                sa_vcs.append(vc)
                    elif stage is VA:
                        out_vcs = outputs[vc.route].vcs[vc.vn]
                        first_ov = None
                        multi = False
                        for index in alloc_vn[vc.vn]:
                            ov = out_vcs[index]
                            if ov.allocated_to is None:
                                if first_ov is None:
                                    first_ov = ov
                                else:
                                    if not multi:
                                        multi = True
                                        va_codes.append(first_ov.code)
                                        va_objs.append(first_ov)
                                    va_codes.append(ov.code)
                                    va_objs.append(ov)
                        if first_ov is None:
                            continue
                        if multi:
                            ov = va_objs[vc.va_arb.pick_at(va_codes)]
                            del va_codes[:]
                            del va_objs[:]
                        else:
                            vc.va_arb._last = first_ov.code
                            ov = first_ov
                        props = ov.proposals
                        if not props:
                            touched.append(ov)
                        props.append(vc)
                if sa_first is not None:
                    if sa_multi:
                        winner_vc = sa_vcs[unit.sa_arb.pick_at(sa_codes)]
                        del sa_codes[:]
                        del sa_vcs[:]
                    else:
                        unit.sa_arb._last = sa_first.scode
                        winner_vc = sa_first
                    sa_found = True
                    win_vc[port] = winner_vc
                    route = winner_vc.route
                    contenders = out_cands[route]
                    if not contenders:
                        out_order.append(route)
                    contenders.append(port)
            # SA phase 2: one grant per output port.
            if sa_found:
                st_pending = self._st_pending
                local_base = self._local_base
                grants = 0
                for route in out_order:
                    contenders = out_cands[route]
                    if len(contenders) == 1:
                        winner = contenders[0]
                        outputs[route].sa_arb._last = winner
                    else:
                        arb = outputs[route].sa_arb
                        winner = contenders[arb.pick_at(contenders)]
                    del contenders[:]
                    vc = win_vc[winner]
                    win_vc[winner] = None
                    if route < local_base:
                        vc.out_obj.credits -= 1
                    vc.granted_pending = True
                    st_pending.append((cycle + 1, winner, vc))
                    grants += 1
                del out_order[:]
                self._c_sa += grants
            # VA phase 2: one grant per proposed-to output VC.
            if touched:
                grants = 0
                for ov in touched:
                    props = ov.proposals
                    if len(props) == 1:
                        vc = props[0]
                        ov.va_arb._last = vc.rcode
                    else:
                        del va_codes[:]
                        for p in props:
                            va_codes.append(p.rcode)
                        vc = props[ov.va_arb.pick_at(va_codes)]
                        del va_codes[:]
                    del props[:]
                    vc.stage = ACTIVE
                    vc.out_vc = ov.index
                    vc.out_obj = ov
                    vc.ready_cycle = cycle + 1
                    ov.allocated_to = vc.rkey
                    grants += 1
                    head = vc.buffer[0][0]
                    msg = head.msg
                    if msg.builds_circuit and vc.vn == 0:
                        # Circuit reservation runs in parallel with VA
                        # (sec. 4.1).
                        policy.on_request_va(self, vc.rkey[0], msg, cycle)
                        if self.observer is not None:
                            self.observer.router_reservation(self, msg, cycle)
                del touched[:]
                self._c_va += grants

    def next_wake(self, cycle: int) -> Optional[int]:
        """Sleep whenever the next tick could not make forward progress.

        Beyond the obvious idle case, a *blocked* router sleeps too: a VC
        waiting on downstream credits, on body flits from upstream, or on
        an occupied output VC cannot act until an event that either
        arrives on a watched link (flit/credit sends poke ``kernel_wake``)
        or is produced by this router's own pipeline during a cycle it is
        awake for anyway (tail departures need a switch traversal, and
        ``_st_pending`` keeps the router awake through those).  Losing
        arbitration always implies some other VC won a grant, so
        ``_st_pending`` covers contention retries as well.  Skipping
        blocked cycles is also state-identical because the round-robin
        arbiters only advance on grants, never on empty candidate sets.

        A router whose only pending work is ``incoming`` traffic still on
        the wire sleeps through the wire latency: the earliest due cycle
        across its input links is exact.  Circuit-table entries need no
        wakeup of their own: expired windows self-clean lazily and
        circuit flits arrive on watched links.
        """
        if self._st_pending:
            return cycle + 1
        if self._waiting:
            for _port, unit in self._input_units:
                if unit.wait_queue:
                    return cycle + 1
        due: Optional[int] = None
        if self._busy_vcs:
            threshold = cycle + 1
            for _port, unit in self._input_units:
                for vc in unit.busy_list:
                    if vc.ready_cycle > threshold:
                        if due is None or vc.ready_cycle < due:
                            due = vc.ready_cycle
                        continue
                    if vc.stage is _ACTIVE:
                        # granted_pending is impossible here: grants sit
                        # in _st_pending until their switch traversal.
                        if vc.buffer and vc.out_obj.credits > 0:
                            return threshold
                    else:  # VcStage.VA
                        out_vcs = self.outputs[vc.route].vcs[vc.vn]
                        for index in self._alloc_vn[vc.vn]:
                            if out_vcs[index].allocated_to is None:
                                return threshold
        if self.incoming:
            for _port, link in self._flit_pulls:
                queue = link._queue
                if queue and (due is None or queue[0][0] < due):
                    due = queue[0][0]
            for _port, link in self._credit_pulls:
                queue = link._queue
                if queue and (due is None or queue[0][0] < due):
                    due = queue[0][0]
        return due

    def _overflow(self, port: int, flit: Flit, vn: int, dst_vc: int,
                  vc: InputVc) -> None:
        """Raise the diagnostic for a flit arriving at a full (or
        bufferless) input VC - a credit-protocol bug, never backpressure."""
        port_name = self.mesh.port_name(port)
        if vc.depth == 0:
            raise SimulationError(
                f"packet flit {flit!r} targeted bufferless VC "
                f"({vn},{dst_vc}) at router {self.node} port {port_name}"
            )
        raise SimulationError(
            f"buffer overflow at router {self.node} port {port_name} "
            f"vc ({vn},{dst_vc})"
        )

    def _route_compute(self, vc: InputVc, flit: Flit, cycle: int) -> None:
        """Stage 1 route computation; the caller manages busy accounting."""
        msg = flit.msg
        vc.route = self._route_rows[msg.vn][msg.dest]
        vc.stage = _VA
        vc.ready_cycle = cycle + 1
        self._c_route += 1

    def _downstream_credit(self, vc: InputVc) -> bool:
        return vc.out_obj.credits > 0

    # ------------------------------------------------------------------
    # Introspection used by tests.
    # ------------------------------------------------------------------
    def buffered_flits(self) -> int:
        return sum(
            len(vc.buffer)
            for _port, unit in self._input_units
            for vn_row in unit.vcs
            for vc in vn_row
        )

    def circuit_entries(self) -> int:
        total = 0
        for _port, unit in self._input_units:
            if unit.circuit_table is not None:
                total += len(unit.circuit_table.entries)
        return total
