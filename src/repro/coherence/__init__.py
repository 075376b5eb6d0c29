"""MESI directory coherence protocol over the NoC (paper Tables 2 and 3)."""

from repro import _lazy_exports

#: Public name -> the module that defines it.
_EXPORTS = {
    "CacheArray": "repro.coherence.cache",
    "Kind": "repro.coherence.messages",
    "L1Controller": "repro.coherence.l1",
    "L2BankController": "repro.coherence.l2dir",
    "MemoryController": "repro.coherence.memory",
}

__all__ = list(_EXPORTS)

_lazy_exports(globals(), _EXPORTS)
