#!/usr/bin/env python
"""NoC microscope: watch one request-reply transaction hop by hop.

Drives the network substrate directly (no cores, no coherence protocol)
with a single request from corner to corner of a 4x4 mesh and prints the
reply's end-to-end latency under every Reactive Circuits variant, next to
the analytic expectation: packet-switched replies pay ~5 cycles/hop, and
circuit replies pay 2 cycles/hop plus tail streaming.

Run:  python examples/noc_microscope.py
"""

from repro.noc.flit import Message
from repro.noc.network import Network
from repro.sim.config import SystemConfig, Variant

SRC, DEST = 0, 15  # opposite corners of the 4x4 mesh: 6 hops
TURNAROUND = 7  # the destination answers after an L2-hit-like delay


def run_one(variant: Variant):
    config = SystemConfig(n_cores=16).with_variant(variant)
    net = Network(config)
    done = {}
    timers = []

    def deliver(msg: Message, cycle: int) -> None:
        if msg.vn == 0:
            reply = Message(msg.dest, msg.src, 1, 5, "L2_REPLY")
            reply.circuit_eligible = True
            reply.circuit_key = msg.circuit_key
            timers.append((cycle + TURNAROUND, reply))
        else:
            done[msg.uid] = msg

    for node in range(16):
        net.set_deliver(node, deliver)

    request = Message(SRC, DEST, 0, 1, "REQUEST")
    request.builds_circuit = True
    request.circuit_key = (SRC, 0x40, request.uid)
    request.reply_flits = 5
    request.expected_turnaround = TURNAROUND
    net.inject(request, 0)

    for cycle in range(1, 600):
        for item in [t for t in timers if t[0] == cycle]:
            timers.remove(item)
            net.inject(item[1], cycle)
        net.core.tick(cycle)
        if done:
            reply = next(iter(done.values()))
            return reply
    raise RuntimeError("reply never arrived")


def main() -> None:
    hops = 6
    print(f"one transaction {SRC} -> {DEST} ({hops} hops) and back\n")
    print(f"{'variant':22s} {'reply net latency':>18s} {'queue':>6s} "
          f"{'outcome':>12s}")
    for variant in (
        Variant.BASELINE,
        Variant.FRAGMENTED,
        Variant.COMPLETE,
        Variant.TIMED_NOACK,
        Variant.SLACKDELAY1_NOACK,
        Variant.POSTPONED1_NOACK,
        Variant.IDEAL,
    ):
        reply = run_one(variant)
        outcome = reply.outcome or "-"
        print(f"{variant.value:22s} {reply.network_latency:14d} cyc "
              f"{reply.queueing_latency:6d} {outcome:>12s}")
    print()
    print("expected: packet reply = 2 + 6x5 + 3 (tail-less pipeline) + 2")
    print("          circuit reply = 2 + 6x2 + 2 + 4 (tail) = 20 cycles")
    print("          postponed waits postpone_per_hop x hops before leaving")


if __name__ == "__main__":
    main()
