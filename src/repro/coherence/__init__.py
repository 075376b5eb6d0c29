"""MESI directory coherence protocol over the NoC (paper Tables 2 and 3)."""

from repro.coherence.cache import CacheArray
from repro.coherence.l1 import L1Controller
from repro.coherence.l2dir import L2BankController
from repro.coherence.memory import MemoryController
from repro.coherence.messages import Kind

__all__ = [
    "CacheArray",
    "Kind",
    "L1Controller",
    "L2BankController",
    "MemoryController",
]
