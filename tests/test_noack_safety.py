"""The section-4.6 safety argument, checked dynamically.

Eliminating L1_DATA_ACK is only sound if data sent over a complete
circuit provably arrives before anything the unblocked directory sends
afterwards.  ``monitored`` mode of the conformance matrix instruments a
full system with that ordering oracle (``PaperOracles``:
``noack_ordering``, and ``reply_retraces_request`` for the path the
argument rests on); here it runs over NoAck CMP cells on all three
topologies and must have judged a substantial number of
self-acknowledged transactions.
"""

from repro import Variant
from repro.noc.topology import TOPOLOGY_CHOICES
from repro.validate.conformance import Cell


def test_circuit_data_always_beats_subsequent_messages(pinned):
    for topology, variant, length in zip(
            TOPOLOGY_CHOICES,
            (Variant.COMPLETE_NOACK, Variant.REUSE_NOACK,
             Variant.SLACKDELAY1_NOACK),
            (500, 250, 250)):
        audit = pinned(Cell(variant, "fluidanimate", length, seed=9,
                            topology=topology), "monitored")["audit"]
        assert audit["self_acks_checked"] > 30, (topology, audit)
        assert audit["replies_checked"] >= audit["self_acks_checked"]
