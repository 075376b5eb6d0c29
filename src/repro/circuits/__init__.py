"""Reactive Circuits: table entries, walks, and per-variant policies (which
own the circuit store)."""

from repro import _lazy_exports

#: Public name -> the module that defines it.
_EXPORTS = {
    "CircuitEntry": "repro.circuits.table",
    "CircuitPolicy": "repro.circuits.policy",
    "CircuitWalk": "repro.circuits.table",
    "HopRecord": "repro.circuits.table",
    "ReplyOutcome": "repro.circuits.outcomes",
    "make_policy": "repro.circuits.policy",
}

__all__ = list(_EXPORTS)

_lazy_exports(globals(), _EXPORTS)
