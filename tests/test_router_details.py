"""Router microarchitecture details: pipeline stages, claims, undo."""

import pytest

from repro.noc.flit import Credit, Message
from repro.noc.network import Network
from repro.noc.topology import Port
from repro.noc.vc import VcStage
from repro.sim.config import SystemConfig, Variant
from repro.sim.kernel import SimulationError


def make_net(variant=Variant.BASELINE, cores=16):
    return Network(SystemConfig(n_cores=cores).with_variant(variant))


def inject(net, node, flit, cycle):
    """Put ``flit`` on ``node``'s injection link (the core's calendar)."""
    net.core.send_flit(net.interfaces[node].router_key, flit, cycle)


def test_router_port_structure():
    net = make_net()
    corner = net.routers[0]
    middle = net.routers[5]
    assert set(corner.ports) == {Port.EAST, Port.SOUTH, Port.LOCAL}
    assert len(middle.ports) == 5
    for port in middle.ports:
        assert len(middle.inputs[port].vcs[0]) == 2
        assert len(middle.inputs[port].vcs[1]) == 2


def test_claim_path_is_exclusive_per_cycle():
    net = make_net()
    router = net.routers[5]
    assert router.claim_path(Port.NORTH, Port.SOUTH)
    assert not router.claim_path(Port.NORTH, Port.EAST)  # input taken
    assert not router.claim_path(Port.WEST, Port.SOUTH)  # output taken
    assert router.claim_path(Port.WEST, Port.EAST)


def test_vc_stage_progression():
    """Head flit: buffer+RC at t, VA t+1, SA t+2, ST t+3."""
    net = make_net()
    router = net.routers[5]
    msg = Message(5, 6, 0, 1, "REQ")
    flit = msg.flits()[0]
    flit.dst_vc = 0
    inject(net, 5, flit, 0)  # arrives at cycle 2
    net.core.tick(2)
    vc = router.vc(Port.LOCAL, 0, 0)
    assert vc.stage is VcStage.VA
    assert vc.route == Port.EAST  # route tables hold plain int ports
    net.core.tick(3)
    assert vc.stage is VcStage.ACTIVE
    assert vc.out_vc is not None
    net.core.tick(4)  # SA grant
    assert vc.granted_pending
    net.core.tick(5)  # ST
    assert not vc.buffer
    assert vc.stage is VcStage.IDLE
    # flit on the EAST link, arriving at the neighbour's WEST input at 7
    assert router.flit_to[Port.EAST] == 6 * net.core.stride + Port.WEST
    assert net.core.flits == {7: [(router.flit_to[Port.EAST], flit)]}


def test_bufferless_vc_rejects_packet_flit():
    net = make_net(Variant.COMPLETE)
    router = net.routers[5]
    msg = Message(5, 6, 1, 1, "REPLY")
    flit = msg.flits()[0]
    flit.dst_vc = 1  # the bufferless circuit VC
    inject(net, 5, flit, 0)
    with pytest.raises(SimulationError, match="bufferless VC"):
        net.core.tick(2)


def test_circuit_flit_without_entry_is_an_error():
    net = make_net(Variant.COMPLETE)
    router = net.routers[5]
    msg = Message(5, 6, 1, 1, "REPLY")
    msg.circuit_key = (6, 0x40, msg.uid)
    flit = msg.flits()[0]
    flit.on_circuit = True
    inject(net, 5, flit, 0)
    with pytest.raises(SimulationError, match="found no entry at router 5"):
        net.core.tick(2)


def test_undo_credit_clears_entry_and_forwards():
    net = make_net(Variant.COMPLETE)
    router = net.routers[5]  # (1,1) in the 4x4 mesh
    from repro.circuits.table import CircuitEntry

    key = (4, 0x80, 1234)  # circuit toward node 4 = (0,1): WEST of node 5
    east = 5 * net.core.stride + Port.EAST
    table = net.policy.tables[east]
    table[key] = CircuitEntry(key, Port.EAST, Port.WEST, built_cycle=0)
    # undo arrives on the EAST credit channel (from the failure router)
    net.core.send_credit(east, Credit(undo_key=key), 0)
    net.core.tick(2)
    assert key not in table
    # and is forwarded toward the circuit destination (WEST)
    [(to, forwarded)] = net.core.credits[4]
    assert to == router.credit_to[Port.WEST] and forwarded.undo_key == key


def test_undo_stops_at_destination_router():
    net = make_net(Variant.COMPLETE)
    router = net.routers[5]
    from repro.circuits.table import CircuitEntry

    key = (5, 0x80, 99)  # destination IS this node -> out port LOCAL
    east = 5 * net.core.stride + Port.EAST
    table = net.policy.tables[east]
    table[key] = CircuitEntry(key, Port.EAST, Port.LOCAL, built_cycle=0)
    net.core.send_credit(east, Credit(undo_key=key), 0)
    net.core.tick(2)
    assert key not in table
    assert not net.core.credits  # nothing toward the NI either


def test_ejection_port_has_effectively_infinite_credits():
    net = make_net()
    router = net.routers[5]
    local_vc = router.output_vc(Port.LOCAL, 0, 0)
    assert local_vc.credits > 1_000_000


def test_busy_vc_accounting_balances():
    net = make_net()
    chip_cycle = 0
    # inject a couple of messages through NIs and ensure counters return to 0
    for node, dest in ((0, 5), (3, 9), (15, 2)):
        msg = Message(node, dest, 0, 3, "REQ")
        net.interfaces[node].enqueue(msg, chip_cycle)
    for cycle in range(1, 300):
        net.core.tick(cycle)
    assert not net.core.busy
    for router in net.routers:
        assert router._busy_vcs == 0
        for port, unit in router._input_units:
            assert not unit.busy_list
