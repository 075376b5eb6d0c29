"""Reactive Circuits: table entries, walks, and per-variant policies (which
own the circuit store)."""

from repro.circuits.outcomes import ReplyOutcome
from repro.circuits.policy import CircuitPolicy, make_policy
from repro.circuits.table import CircuitEntry, CircuitWalk, HopRecord

__all__ = [
    "CircuitEntry",
    "CircuitPolicy",
    "CircuitWalk",
    "HopRecord",
    "ReplyOutcome",
    "make_policy",
]
