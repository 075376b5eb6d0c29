"""Four-stage wormhole routers with Reactive Circuits support.

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

The routers and network interfaces of a network are one kernel
component, :class:`RouterCore`.  Each cycle it runs one stage at a time
across the whole network - credits, ideal-mode retries, arrivals, switch
traversal, the fused switch/VC allocation (:meth:`Router.allocate`) of
every router holding a busy VC, and last the NI stage - over a
network-owned arrival calendar that is the NoC's only wire and only
timer.  Every channel carries at least one cycle of latency, so no
router or NI reads another's state within a cycle: running the stages
network-wide is bit-identical to running the routers one after another
and then the NIs in node order.  :class:`Router` keeps one router's state
(units, VCs, arbiters) and the helpers the circuit policies call; the
circuit state lives in the policy's store, under the calendar's keys.
The hot loops use dense port-indexed lists, precomputed route tables,
round-robin arbiters over integer candidate codes with reused scratch
lists, and counters batched into plain ints that a registered
:class:`~repro.sim.stats.Stats` flusher drains at read boundaries.  The committed conformance goldens
(``tests/golden/conformance.json``) pin the behaviour, stats and finish
cycles included.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.noc.allocators import RoundRobinArbiter
from repro.noc.flit import Credit, Flit
from repro.noc.routing import route_tables
from repro.noc.topology import Topology
from repro.noc.vc import InputVc, OutputVc, VcStage
from repro.sim.kernel import SimulationError
from repro.sim.stats import Stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.interface import NetworkInterface
    from repro.sim.config import SystemConfig

#: Effectively infinite credit count used for ejection (NI sink) ports.
EJECTION_CREDITS = 1 << 30

#: Crossbar claim masks hold input port ``p`` at bit ``p`` and output
#: port ``p`` at bit ``OUT_SHIFT + p``.
OUT_SHIFT = 16

_ACTIVE = VcStage.ACTIVE
_VA = VcStage.VA
_IDLE = VcStage.IDLE
_KEY = itemgetter(0)


def post(calendar: Dict[int, list], due: int, entry: tuple) -> None:
    """File ``entry`` under cycle ``due`` of an arrival calendar."""
    bucket = calendar.get(due)
    if bucket is None:
        calendar[due] = [entry]
    else:
        bucket.append(entry)


class InputUnit:
    """Per-input-port state: VCs, busy list, switch-allocation arbiter."""

    __slots__ = ("router", "port", "vcs", "busy_list", "sa_arb")

    def __init__(self, router: "Router", port: int,
                 vcs: List[List[InputVc]]) -> None:
        self.router = router
        self.port = port
        #: vcs[vn][vc_index]
        self.vcs = vcs
        #: The non-IDLE VCs, kept sorted by (vn, index) so the allocation
        #: stages see candidates in the same order a full scan of ``vcs``
        #: would produce (round-robin decisions depend on it).
        self.busy_list: List[InputVc] = []
        #: Phase-1 switch-allocation arbiter for this port's candidates.
        self.sa_arb = RoundRobinArbiter()


class OutputUnit:
    """Per-output-port state: downstream VC credit/allocation bookkeeping."""

    __slots__ = ("router", "port", "vcs", "sa_arb")

    def __init__(self, router: "Router", port: int,
                 vcs: List[List[OutputVc]]) -> None:
        self.router = router
        self.port = port
        self.vcs = vcs
        #: Phase-2 switch-allocation arbiter among contending input ports.
        self.sa_arb = RoundRobinArbiter()


class Router:
    """One NoC router's state; :class:`RouterCore` clocks it.

    Wiring (set by :class:`~repro.noc.network.Network`): ``flit_to[p]``
    and ``credit_to[p]`` are the calendar keys that flits leaving through
    ``p`` and the credits for flits received on ``p`` are posted under -
    the neighbour's ``router * stride + port`` for a network port, the
    NI's ``n_routers * stride + node`` for a local port.

    The per-port structures are dense lists indexed by the plain-int port
    id, sized to the topology's ``max_radix`` (``None`` where the port
    does not exist).  Iterate present ports via ``self.ports`` or the
    ``_input_units`` pairs.  ``node`` is the *router* id; topologies with
    concentration attach several nodes through local ports >=
    ``topology.local_base``.
    """

    def __init__(self, node: int, mesh: Topology, config: "SystemConfig",
                 policy, stats: Stats, core: "RouterCore") -> None:
        self.node = node
        self.mesh = mesh
        self.config = config
        self.policy = policy
        self.stats = stats
        self.core = core
        noc = config.noc
        n_ports = mesh.max_radix
        local_base = mesh.local_base
        self._local_base = local_base
        self.ports: List[int] = mesh.router_ports(node)
        self.inputs: List[Optional[InputUnit]] = [None] * n_ports
        self.outputs: List[Optional[OutputUnit]] = [None] * n_ports
        depth = noc.buffer_depth_flits
        bufferless = policy.bufferless_vcs()  # set of (vn, vc)
        for port in self.ports:
            in_vcs: List[List[InputVc]] = []
            out_vcs: List[List[OutputVc]] = []
            port_bits = port << 8
            for vn, count in enumerate(noc.vcs_per_vn):
                row_in: List[InputVc] = []
                row_out: List[OutputVc] = []
                for index in range(count):
                    vc_depth = 0 if (vn, index) in bufferless else depth
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
            self.inputs[port] = InputUnit(self, port, in_vcs)
            self.outputs[port] = OutputUnit(self, port, out_vcs)
        self._input_units = [(port, self.inputs[port]) for port in self.ports]
        # Destinations, wired by the Network (dense, port-indexed).
        self.flit_to: list = [None] * n_ports
        self.credit_to: list = [None] * n_ports
        # Precomputed next-hop rows for this router: [vn] -> dest -> port.
        req_table, rep_table = route_tables(mesh, noc.request_xy)
        self._route_rows = (req_table[node], rep_table[node])
        # allocatable_vcs() is a static property of the policy; caching it
        # keeps a per-VC virtual call out of the allocation inner loops.
        self._alloc_vn = tuple(
            policy.allocatable_vcs(vn) for vn in range(len(noc.vcs_per_vn))
        )
        #: Count of VCs not in IDLE stage.
        self._busy_vcs = 0
        #: Flits forwarded through this crossbar (utilisation heatmaps).
        self.forwarded = 0
        #: Optional debug tracer: fn(cycle, router, out_port, flit).
        self.tracer = None
        #: Optional telemetry span recorder (``repro.telemetry``); hooks
        #: are guarded by ``observer is not None`` so detached telemetry
        #: costs one attribute test per event site.
        self.observer = None
        # Reused allocation scratch (never escapes an allocate call).
        self._sa_codes: List[int] = []
        self._sa_vcs: List[InputVc] = []
        self._sa_out_order: List[int] = []
        self._sa_out_cands: List[List[int]] = [[] for _ in range(n_ports)]
        self._sa_win_vc: List[Optional[InputVc]] = [None] * n_ports
        self._va_codes: List[int] = []
        self._va_objs: List[OutputVc] = []
        self._va_touched: List[OutputVc] = []

    # ------------------------------------------------------------------
    # Helpers used by policies and the network interface machinery.
    # ------------------------------------------------------------------
    def vc(self, port: int, vn: int, index: int) -> InputVc:
        return self.inputs[port].vcs[vn][index]

    def output_vc(self, port: int, vn: int, index: int) -> OutputVc:
        return self.outputs[port].vcs[vn][index]

    def claim_path(self, in_port: int, out_port: int) -> bool:
        """Atomically claim crossbar input+output lines for this cycle."""
        claims = self.core.claims
        need = (1 << in_port) | (1 << (OUT_SHIFT + out_port))
        mask = claims[self.node]
        if mask & need:
            return False
        claims[self.node] = mask | need
        return True

    def forward_flit(self, out_port: int, flit: Flit, cycle: int) -> None:
        """Send ``flit`` through the crossbar onto ``out_port``'s link."""
        core = self.core
        core.send_flit(self.flit_to[out_port], flit, cycle)
        self.forwarded += 1
        core._c_xbar += 1
        if self.tracer is not None:
            self.tracer(cycle, self, out_port, flit)

    def return_credit(self, in_port: int, vn: int, vc_index: int, cycle: int) -> None:
        """Return one buffer credit upstream for ``in_port``'s (vn, vc)."""
        core = self.core
        core.send_credit(self.credit_to[in_port],
                         core._credit_objs[vn][vc_index], cycle)
        core._c_credits += 1

    def send_undo(self, out_port: int, key, cycle: int) -> None:
        """Propagate an undo notice toward the circuit destination."""
        self.core.send_credit(self.credit_to[out_port], Credit(undo_key=key),
                              cycle)
        self.stats.bump("circuit.undo_hops")

    def vc_became_busy(self, port: int, vc: InputVc) -> None:
        if not self._busy_vcs:
            self.core.mark_busy(self)
        self._busy_vcs += 1
        busy = self.inputs[port].busy_list
        key = (vc.vn, vc.index)
        i = len(busy)
        while i and (busy[i - 1].vn, busy[i - 1].index) > key:
            i -= 1
        busy.insert(i, vc)

    def vc_became_idle(self, port: int, vc: InputVc) -> None:
        self._busy_vcs -= 1
        if not self._busy_vcs:
            self.core.busy.remove(self)
        self.inputs[port].busy_list.remove(vc)

    def route_vn(self, vn: int, dest: int) -> int:
        """Precomputed DOR next hop from this router for ``(vn, dest)``."""
        return self._route_rows[vn][dest]

    def route_reply(self, dest: int) -> int:
        """Reply-VN route from this router toward ``dest``."""
        return self._route_rows[1][dest]

    # ------------------------------------------------------------------
    # Stages 2+3: fused switch + VC allocation.
    # ------------------------------------------------------------------
    def allocate(self, cycle: int) -> None:
        """Switch and VC allocation over this router's busy VCs.

        One pass over each port's busy list computes both the SA phase-1
        port winners and the VA phase-1 proposals.  The fusion is
        decision-identical to running the two stages back to back: the
        scans read disjoint VC sets (stage ACTIVE vs. VA) through disjoint
        arbiters, and applying the SA grants mutates only
        ``credits``/``granted_pending``/the grant list, none of which the
        VA phase reads.  Candidate lists materialise lazily - the common
        single-candidate case advances the arbiter directly and never
        appends.  A blocked VC finds no candidate and arbiters advance
        only on grants, so calling this on a router whose busy VCs are
        all blocked changes nothing.
        """
        outputs = self.outputs
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
        core = self.core
        # SA phase 2: one grant per output port.
        if sa_found:
            grants = core.grants
            local_base = self._local_base
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
                grants.append((self, winner, vc))
            core._c_sa += len(out_order)
            del out_order[:]
        # VA phase 2: one grant per proposed-to output VC.
        if touched:
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
                head = vc.buffer[0][0]
                msg = head.msg
                if msg.builds_circuit and vc.vn == 0:
                    # Circuit reservation runs in parallel with VA
                    # (sec. 4.1).
                    self.policy.on_request_va(self, vc.rkey[0], msg, cycle)
                    if self.observer is not None:
                        self.observer.router_reservation(self, msg, cycle)
            core._c_va += len(touched)
            del touched[:]

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


class RouterCore:
    """Every router and network interface of one network, clocked as one
    kernel component.

    The arrival calendar is three dicts mapping a due cycle to its
    entries: ``flits`` and ``credits`` hold ``(key, item)`` wire entries,
    ``wakes`` holds the keys of NIs with timed work due then.  A key names
    the receiver: ``router * stride + port`` the input unit (flits) or
    output unit (buffer credits and undo notices) of a router port, and
    ``ni_base + node`` (``ni_base = n_routers * stride``) the network
    interface of a node.  Every link shares one latency ``L``, so an item
    sent in cycle ``c`` is due in ``c + 1 + L``.  A due bucket is stably
    sorted by key before it is applied, which replays the order one router
    at a time and then one NI at a time would see: ports ascending, NIs
    after every router, each channel first in first out.

    The last stage of a cycle, ``ni_stage`` (an instance attribute, so a
    profiler can time it), runs the body of every NI with ejected flits or
    a wake due, or in ``ni_awake``, in node order.  Credits bound for an
    NI are applied in the credit stage: only its injection reads them.

    Wake rule (:meth:`next_wake`): awake while a grant awaits switch
    traversal, a router holds a busy VC, an ideal-mode flit waits for the
    crossbar (the policy's ``waits``) or an NI has a queued message or
    active send (``ni_awake``); otherwise asleep until the earliest
    calendar entry (``None`` for an empty calendar).  An NI handed a
    message or an undo notice from outside the core
    (:meth:`wake_interface`) pokes ``kernel_wake``; nothing else does.
    """

    def __init__(self, topo: Topology, config: "SystemConfig", policy,
                 stats: Stats) -> None:
        self.latency = config.noc.link_latency
        self.stride = topo.max_radix
        #: First NI key: NI-bound entries sort after every router's.
        self.ni_base = topo.n_routers * self.stride
        self.policy = policy
        self.stats = stats
        self.routers: List[Router] = []
        self.interfaces: List["NetworkInterface"] = []
        #: The arrival calendar: due cycle -> [(key, Flit / Credit)], and
        #: due cycle -> [NI key] for the NIs' timed work.
        self.flits: Dict[int, list] = {}
        self.credits: Dict[int, list] = {}
        self.wakes: Dict[int, list] = {}
        #: Switch-allocation winners awaiting traversal, in grant order:
        #: ``(router, in_port, vc)``.
        self.grants: List[tuple] = []
        self._grant_scratch: List[tuple] = []
        #: Routers holding a busy VC, in ascending node order.
        self.busy: List[Router] = []
        #: Ideal-mode flits waiting for the crossbar: the policy's
        #: ``waits``, keyed like the calendar.
        self.waits = policy.waits
        #: Nodes whose NI has a queued message or an active send: its
        #: body runs every cycle until they drain.
        self.ni_awake: Set[int] = set()
        #: This cycle's ejected flits, node -> [Flit] in arrival order.
        self._ejected: Dict[int, list] = {}
        #: The NI stage, rebindable: ``ni_stage(cycle)`` -> bodies run.
        self.ni_stage = self._ni_stage
        #: This cycle's crossbar claims, one mask per router (see
        #: ``OUT_SHIFT``), reset each cycle to ``claims_floor`` - all
        #: zero unless fault injection pins a port.
        self.claims: List[int] = [0] * topo.n_routers
        self.claims_floor: List[int] = [0] * topo.n_routers
        #: Calendar key -> receiving InputUnit / OutputUnit (``attach``).
        self._in_units: List[Optional[InputUnit]] = []
        self._out_units: List[Optional[OutputUnit]] = []
        #: Buffer credits by [vn][vc]: immutable, so each is built once.
        self._credit_objs = [
            [Credit(vn, vc) for vc in range(count)]
            for vn, count in enumerate(config.noc.vcs_per_vn)
        ]
        # Imported here: repro.circuits imports repro.noc (see Network).
        from repro.circuits.policy import ON_CIRCUIT

        #: The policy's arrival hook sees flits riding a circuit, else
        #: reply-VN flits keyed to an entry at the port (REPLY_KEYED).
        self._filter_on_circuit = policy.arrival_filter == ON_CIRCUIT
        #: Set by the simulator kernel (None until registered).
        self.kernel_wake = None
        # Hot counters of the routers and NIs, batched; drained by
        # _flush_counters (registered with the Stats object) at
        # sample/finish boundaries.
        self._c_buffer_writes = 0
        self._c_route = 0
        self._c_buffer_reads = 0
        self._c_xbar = 0
        self._c_credits = 0
        self._c_sa = 0
        self._c_va = 0
        self._c_enqueued = 0
        self._c_injected = 0
        self._c_delivered_msgs = 0
        self._c_delivered_flits = 0
        stats.add_flusher(self._flush_counters)

    def attach(self, routers: List[Router],
               interfaces: List["NetworkInterface"]) -> None:
        """Index the wired routers' units by calendar key."""
        self.routers = routers
        self.interfaces = interfaces
        self._in_units = [None] * self.ni_base
        self._out_units = [None] * self.ni_base
        for router in routers:
            for port in router.ports:
                key = router.node * self.stride + port
                self._in_units[key] = router.inputs[port]
                self._out_units[key] = router.outputs[port]

    def _flush_counters(self) -> None:
        """Drain batched hot counters into the shared Stats dict.

        Only nonzero deltas are written: flushing zeros would create
        counter keys an unbatched run never creates, breaking snapshot
        equality.  A flit crosses a link when it is injected and each
        time it traverses a crossbar, so ``noc.link_flits`` is their sum.
        """
        counters = self.stats.counters
        link = self._c_xbar + self._c_injected
        if link:
            counters["noc.link_flits"] += link
        for name, key in (("_c_buffer_writes", "noc.buffer_writes"),
                          ("_c_route", "noc.route_computations"),
                          ("_c_buffer_reads", "noc.buffer_reads"),
                          ("_c_xbar", "noc.xbar_traversals"),
                          ("_c_credits", "noc.credits_sent"),
                          ("_c_sa", "noc.sa_grants"),
                          ("_c_va", "noc.va_grants"),
                          ("_c_enqueued", "noc.msgs_enqueued"),
                          ("_c_injected", "noc.flits_injected"),
                          ("_c_delivered_msgs", "noc.msgs_delivered"),
                          ("_c_delivered_flits", "noc.flits_delivered")):
            value = getattr(self, name)
            if value:
                counters[key] += value
                setattr(self, name, 0)

    # ------------------------------------------------------------------
    # Posting into the calendar.
    # ------------------------------------------------------------------
    def send_flit(self, key: int, flit: Flit, cycle: int) -> None:
        """Put ``flit`` on the wire toward ``key`` during ``cycle``."""
        post(self.flits, cycle + 1 + self.latency, (key, flit))

    def send_credit(self, key: int, credit: Credit, cycle: int) -> None:
        """Put ``credit`` (or an undo notice) on the wire toward ``key``."""
        post(self.credits, cycle + 1 + self.latency, (key, credit))

    def wake_interface(self, node: int, due: int) -> None:
        """NI ``node`` has work due at ``due`` (a message handed to it, a
        held reply's release, an undo notice): a wake-only calendar entry
        at its key, and a poke for a sleeping core."""
        post(self.wakes, due, self.ni_base + node)
        if self.kernel_wake is not None:
            self.kernel_wake(due)

    def mark_busy(self, router: Router) -> None:
        """``router`` holds its first busy VC: join ``busy`` in order."""
        busy = self.busy
        node = router.node
        i = len(busy)
        while i and busy[i - 1].node > node:
            i -= 1
        busy.insert(i, router)

    # ------------------------------------------------------------------
    # The clocked protocol.
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """One network cycle, stage by stage across every router, then
        the NI stage."""
        self.claims = self.claims_floor[:]
        ni_base = self.ni_base
        credits = self.credits.pop(cycle, None)
        if credits:
            # -- credits and undo notices -----------------------------
            if len(credits) > 1:
                credits.sort(key=_KEY)
            out_units = self._out_units
            policy = self.policy
            for key, credit in credits:
                vn = credit.vn
                if key >= ni_base:
                    # Undo notices end at the destination router.
                    if vn is not None:
                        self.interfaces[key - ni_base].credits[vn][
                            credit.vc] += 1
                    continue
                if vn is not None:
                    out_units[key].vcs[vn][credit.vc].credits += 1
                if credit.undo_key is not None:
                    policy.handle_undo(out_units[key].router, key,
                                       credit.undo_key, cycle)
        if self.waits:
            self.policy.retry_waiting(self._in_units, cycle)
        flits = self.flits.pop(cycle, None)
        if flits:
            if len(flits) > 1:
                flits.sort(key=_KEY)
            if flits[-1][0] >= ni_base:
                self._eject(flits)
            if flits:
                self._arrive(flits, cycle)
        if self.grants:
            self._traverse(cycle)
        for router in self.busy:
            router.allocate(cycle)
        self.ni_stage(cycle)

    def next_wake(self, cycle: int) -> Optional[int]:
        """Stay awake while any router or NI has pipeline work; otherwise
        sleep until the calendar's earliest entry.  A busy VC keeps the
        core awake even when blocked: blocked VCs find no allocation
        candidate and arbiters advance only on grants, so those cycles
        change nothing; so does an NI blocked on credits."""
        if self.grants or self.busy or self.waits or self.ni_awake:
            return cycle + 1
        due = None
        for calendar in (self.flits, self.credits, self.wakes):
            if calendar:
                first = min(calendar)
                if due is None or first < due:
                    due = first
        return due

    # -- the NI stage ----------------------------------------------------------
    def _eject(self, flits: list) -> None:
        """Move the NI-bound tail of a sorted due bucket to ``_ejected``."""
        ni_base = self.ni_base
        split = len(flits) - 1
        while split and flits[split - 1][0] >= ni_base:
            split -= 1
        ejected = self._ejected
        for key, flit in flits[split:]:
            ejected.setdefault(key - ni_base, []).append(flit)
        del flits[split:]

    def _ni_stage(self, cycle: int) -> int:
        """Run the body of every NI with ejected flits, a wake due or
        queued work, in node order; returns how many ran."""
        ejected = self._ejected
        awake = self.ni_awake
        woken = self.wakes.pop(cycle, None)
        if woken or ejected:
            nodes = awake.union(ejected)
            if woken:
                nodes.update(key - self.ni_base for key in woken)
        elif awake:
            nodes = awake
        else:
            return 0
        interfaces = self.interfaces
        order = sorted(nodes)
        for node in order:
            if interfaces[node].tick(cycle, ejected.get(node, ())):
                awake.add(node)
            else:
                awake.discard(node)
        if ejected:
            ejected.clear()
        return len(order)

    # -- stage 1: arrivals (circuit check, buffering + RC) -----------------
    def _arrive(self, flits: list, cycle: int) -> None:
        in_units = self._in_units
        policy = self.policy
        arrival_hook = policy.handle_arrival
        on_circuit = self._filter_on_circuit
        tables = policy.tables
        IDLE = _IDLE
        VA = _VA
        writes = 0
        routes = 0
        last = -1
        for key, flit in flits:
            if key != last:
                last = key
                unit = in_units[key]
                router = unit.router
                port = unit.port
                port_vcs = unit.vcs
            msg = flit.msg
            if arrival_hook is not None:
                # The policy's arrival_filter, tested here: the hook
                # sees only the flits it may consume.
                if on_circuit:
                    handled = flit.on_circuit and arrival_hook(
                        router, port, key, flit, cycle)
                else:  # REPLY_KEYED
                    handled = (msg.vn == 1
                               and msg.circuit_key is not None
                               and msg.circuit_key in tables[key]
                               and arrival_hook(router, port, key, flit,
                                                cycle))
                if handled:
                    if router.observer is not None:
                        router.observer.router_circuit_hit(router, flit, cycle)
                    continue
            vn = msg.vn
            dst_vc = flit.dst_vc
            vc = port_vcs[vn][dst_vc]
            buf = vc.buffer
            if len(buf) >= vc.depth:
                router._overflow(port, flit, vn, dst_vc, vc)
            buf.append((flit, cycle, dst_vc))
            writes += 1
            if flit.is_head and vc.stage is IDLE and len(buf) == 1:
                router.vc_became_busy(port, vc)
                vc.route = router._route_rows[vn][msg.dest]
                vc.stage = VA
                vc.ready_cycle = cycle + 1
                routes += 1
        self._c_buffer_writes += writes
        self._c_route += routes

    # -- stage 4: switch traversal -------------------------------------------
    def _traverse(self, cycle: int) -> None:
        pending = self.grants
        remaining = self._grant_scratch
        claims = self.claims
        due = cycle + 1 + self.latency
        flits_out = self.flits.setdefault(due, [])
        credits_out = self.credits.setdefault(due, [])
        credit_objs = self._credit_objs
        tail_hook = self.policy.on_tail_departure
        stride = self.stride
        moved = 0
        for item in pending:
            router, in_port, vc = item
            out_port = vc.route
            node = router.node
            need = (1 << in_port) | (1 << (OUT_SHIFT + out_port))
            mask = claims[node]
            if mask & need:
                remaining.append(item)  # crossbar busy (circuit priority)
                continue
            claims[node] = mask | need
            flit, _arrived, credit_vc = vc.buffer.popleft()
            out_vc_index = vc.out_vc
            flit.dst_vc = out_vc_index if out_vc_index is not None else 0
            flits_out.append((router.flit_to[out_port], flit))
            router.forwarded += 1
            if router.tracer is not None:
                router.tracer(cycle, router, out_port, flit)
            credits_out.append((router.credit_to[in_port],
                                credit_objs[vc.vn][credit_vc]))
            moved += 1
            vc.granted_pending = False
            if flit.is_tail:
                vc.out_obj.allocated_to = None
                if tail_hook is not None:
                    tail_hook(node * stride + in_port, flit)
                vc.reset_for_next_packet(cycle)
                if vc.buffer:
                    # Non-atomic buffers: the next packet is already
                    # queued; its head starts route computation now (the
                    # VC stays busy).
                    msg = vc.buffer[0][0].msg
                    vc.route = router._route_rows[msg.vn][msg.dest]
                    vc.stage = _VA
                    vc.ready_cycle = cycle + 1
                    self._c_route += 1
                else:
                    router.vc_became_idle(in_port, vc)
        if not flits_out:
            del self.flits[due]
        if not credits_out:
            del self.credits[due]
        # Recycle the drained list as the next call's scratch.
        del pending[:]
        self.grants = remaining
        self._grant_scratch = pending
        self._c_buffer_reads += moved
        self._c_xbar += moved
        self._c_credits += moved
