"""The conformance matrix (``repro.validate.conformance``) itself.

The cells the pre-matrix suites pinned keep their test ids where they
were (``test_hotpath_`` / ``test_kernel_`` / ``test_shard_`` /
``test_topology_equivalence``, ``test_telemetry_ab``, the engine matrix
of ``test_harness``, ``test_noack_safety``): each is one line through the
``pinned`` fixture of ``tests/conftest.py``, which compares every mode
of a cell against a digest in ``tests/golden/conformance.json`` that the
reference pipeline generated under always-tick.  This file holds what
belongs to no older suite:

* the topology x pipeline x shards cells ``tools/smoke_topology.py`` ran
  in CI;
* the generated half: derandomised hypothesis draws of ``Cell`` over the
  whole space, fast + activity kernel + invariant monitor + paper
  oracles against reference + always-tick.  A failure prints the
  shrunken ``Cell(...)``: paste it in as an ``@example`` to pin it;
* proof that ``diff`` and the two paper-property oracles bite, and the
  pinned 8x8-torus deadlock the generator steers clear of.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coherence.messages import Kind
from repro.noc import network
from repro.noc.flit import Message
from repro.noc.routing import build_route_table
from repro.noc.topology import TOPOLOGY_CHOICES
from repro.noc.traffic import RequestReplyTraffic
from repro.sim.config import CircuitMode, SystemConfig, Variant
from repro.validate import conformance
from repro.validate.conformance import Cell
from repro.validate.forensics import build_wait_graph, find_cycle
from repro.validate.invariants import InvariantViolation
from tests.conftest import CONFORMANCE_GOLDEN


# ----------------------------------------------------------------------
# Pinned cells no older suite owns.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("topology", TOPOLOGY_CHOICES)
def test_topology_pipeline_shards_matrix(topology, pinned):
    """Fastpath on/off x shards 1/2 per registered topology (the torus's
    wraparound links are boundary channels of the sharded coordinator;
    the mesh's sharded cells are ``test_shard_equivalence``'s)."""
    pinned(Cell(Variant.COMPLETE_NOACK, "canneal", 120, seed=3,
                topology=topology), "fast", "reference",
           *(("shards2", "reference+shards2") if topology != "mesh" else ()))


def test_goldens_are_distinct_digests():
    with open(CONFORMANCE_GOLDEN) as handle:
        golden = json.load(handle)
    assert len(golden) >= 40
    assert all(len(value) == 16 for value in golden.values())
    # Cells that differ only in an engine-irrelevant way would collide;
    # none may (the ACK elimination is invisible to synthetic traffic,
    # which is the one family of twins the matrix pins).
    digests = [value for key, value in golden.items()
               if not key.startswith("Complete_NoAck-")]
    assert len(set(digests)) == len(digests)


# ----------------------------------------------------------------------
# The generated half.
# ----------------------------------------------------------------------
CELLS = st.builds(
    lambda **axes: conformance.legal(Cell(length=0, **axes)),
    **{axis: st.sampled_from(choices)
       for axis, choices in conformance.AXES.items()})
_drawn = []


@settings(max_examples=20, derandomize=True, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(cell=CELLS)
def test_generated_cells_conform(cell):
    _drawn.append(cell)
    problem = conformance.diff(
        conformance.run(cell, "monitored"),
        conformance.run(cell, conformance.GOLDEN_MODE))
    assert not problem, f"{cell!r}: {problem}"


def test_generated_draws_span_the_space():
    if not _drawn:
        pytest.skip("runs after test_generated_cells_conform")
    cells = set(_drawn)
    assert len(cells) >= 20
    assert {cell.topology for cell in cells} == set(TOPOLOGY_CHOICES)
    assert {cell.n_cores for cell in cells} == {16, 64}
    assert {cell.vcs for cell in cells} == {2, 3}
    assert {cell.buffer_depth for cell in cells} == {3, 5}
    assert {cell.traffic for cell in cells} == {True, False}
    rates = {cell.load for cell in cells if cell.traffic}
    assert min(rates) <= 6.0 and max(rates) >= 48.0
    assert {cell.config().circuit.mode for cell in cells} == set(CircuitMode)


def test_generate_is_seeded_and_keeps_big_tori_below_the_deadlock():
    cells = conformance.generate(7, 300)
    assert cells == conformance.generate(7, 300)
    assert cells != conformance.generate(8, 300)
    assert all(cell == conformance.legal(cell) for cell in cells)
    big_tori = [cell for cell in cells if cell.traffic
                and (cell.topology, cell.n_cores) == ("torus", 64)]
    assert big_tori and max(cell.load for cell in big_tori) \
        == conformance.TORUS64_MAX_RATE
    assert eval(repr(cells[0])) == cells[0]  # a failure's repr pastes back


def test_torus64_deadlocks_under_load():
    """Counterexample to "the torus needs no datelines": Baseline traffic
    on the 8x8 torus at 120 requests/kcycle/node never drains, and the
    wait-for graph closes a cycle round a ring within one VN.  A dateline
    (or bubble) fix must flip this test knowingly - and may then raise
    ``conformance.TORUS64_MAX_RATE``."""
    cell = Cell(Variant.BASELINE, 120.0, 600, topology="torus", n_cores=64)
    traffic = RequestReplyTraffic(cell.config(), cell.load, seed=cell.seed)
    traffic.run(cell.length)
    with pytest.raises(RuntimeError, match="failed to drain"):
        traffic.drain(max_cycles=2500)
    assert traffic.net.in_flight() > 1000
    cycle = find_cycle(build_wait_graph(traffic.net))
    assert cycle and cycle[0] == cycle[-1]
    assert len({vc.split(".")[2] for vc in cycle}) == 1  # one VN
    assert sum(".WEST." in vc or ".EAST." in vc for vc in cycle) >= 8 \
        or sum(".NORTH." in vc or ".SOUTH." in vc for vc in cycle) >= 8
    # the same load drains at the generator's bound
    calm = Cell(Variant.BASELINE, conformance.TORUS64_MAX_RATE, 600,
                topology="torus", n_cores=64)
    assert conformance.run(calm)["traffic"]["replies_received"] > 1000


def test_fragmented_wedges_on_buffers_shallower_than_a_reply():
    """The other bound ``legal`` enforces (found by the generated half):
    a Fragmented circuit VC must hold a whole 5-flit reply."""
    shallow = conformance.FRAGMENTED_MIN_BUFFER - 1
    cell = Cell(Variant.FRAGMENTED, 24.0, 800, buffer_depth=shallow)
    assert conformance.legal(cell).buffer_depth == shallow + 1
    traffic = RequestReplyTraffic(cell.config(), cell.load, seed=cell.seed)
    traffic.run(cell.length)
    with pytest.raises(RuntimeError, match="failed to drain"):
        traffic.drain(max_cycles=6000)
    deep = dataclasses.replace(cell, buffer_depth=shallow + 1)
    assert conformance.run(deep)["traffic"]["replies_received"] > 200


# ----------------------------------------------------------------------
# The comparator and the oracles bite.
# ----------------------------------------------------------------------
def test_diff_names_the_first_diverging_counter():
    cell = Cell(Variant.COMPLETE, 24.0, 400)
    ours, theirs = conformance.run(cell), conformance.run(cell, "reference")
    assert conformance.diff(ours, theirs) is None
    assert conformance.digest(ours) == conformance.digest(theirs)
    theirs["counters"]["noc.sa_grants"] += 1
    theirs["cycles"]["finish"] += 1
    problem = conformance.diff(ours, theirs)
    assert problem.startswith("counters diverge on 1 keys (first: "
                              "noc.sa_grants: ")
    assert conformance.digest(ours) != conformance.digest(theirs)
    with pytest.raises(ValueError, match="engines need a CMP cell"):
        conformance.run(cell, "shards2")
    paper = Cell(Variant.BASELINE, "canneal", 100, paper_caches=True)
    with pytest.raises(ValueError, match="cannot run in mode"):
        conformance.run(paper, "fastest")
    with pytest.raises(ValueError, match="no RunSpec"):
        conformance.run(dataclasses.replace(paper, vcs=3), "api")


@pytest.fixture
def same_order_replies(monkeypatch):
    """Adversarial route table: the reply VN is given the request VN's
    dimension order, so a routed reply no longer retraces its request."""
    real = network.build_topology

    def build(config):
        topo = real(config)
        xy = build_route_table(topo, True)
        topo._route_table_cache = {True: xy, False: xy}
        return topo

    monkeypatch.setattr(network, "build_topology", build)


@pytest.mark.parametrize("topology", TOPOLOGY_CHOICES)
@pytest.mark.parametrize("cell", [
    Cell(Variant.IDEAL, 24.0, 1500),
    Cell(Variant.FRAGMENTED, 24.0, 1500),
    Cell(Variant.IDEAL, "fluidanimate", 300, seed=9),  # self-acknowledged
], ids=lambda cell: cell.id)
def test_path_oracle_bites_on_the_adversarial_table(
        cell, topology, same_order_replies):
    with pytest.raises(InvariantViolation) as caught:
        conformance.run(dataclasses.replace(cell, topology=topology),
                        "monitored")
    assert caught.value.check == "reply_retraces_request"


def test_adversarial_table_strands_complete_circuits(same_order_replies):
    """A complete-circuit reply follows the entries its request laid, not
    the reply table, so it still retraces the request; what the swapped
    table breaks is the undo walk, which the lifecycle check catches."""
    with pytest.raises(InvariantViolation) as caught:
        conformance.run(Cell(Variant.COMPLETE_NOACK, "fluidanimate", 300,
                             seed=9), "monitored")
    assert caught.value.check == "circuit_lifecycle"


def test_ordering_oracle_bites_on_an_overtaking_invalidation():
    """No route table can reorder a complete circuit (see above), so the
    ordering law is proven on the scripted event it exists to catch: an
    INV ejected at an L1 while self-acknowledged data for that line is
    still in flight to it."""
    net = network.Network(SystemConfig(n_cores=16).with_variant(
        Variant.COMPLETE_NOACK))
    oracles = conformance.PaperOracles(net)

    class Payload:
        addr, ack_suppressed = 0x1c0, True

    data = Message(5, 2, 1, 5, Kind.L2_REPLY, Payload())
    inv = Message(5, 2, 0, 1, Kind.INV, Payload())
    oracles.ni_inject(net.interfaces[5], data, 100, circuit=True)
    with pytest.raises(InvariantViolation) as caught:
        oracles.ni_eject(net.interfaces[2], inv, 104, "req")
    assert caught.value.check == "noack_ordering"
    # delivered first, the same INV is in order
    data.uses_circuit = False
    oracles.ni_eject(net.interfaces[2], data, 106, "crep")
    oracles.ni_eject(net.interfaces[2], inv, 108, "req")
    assert oracles.audit["self_acks_checked"] == 1
