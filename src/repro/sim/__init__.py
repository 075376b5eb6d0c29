"""Simulation kernel: cycle-driven scheduler, configuration, RNG, statistics."""

from repro import _lazy_exports

#: Public name -> the module that defines it.
_EXPORTS = {
    "CacheConfig": "repro.sim.config",
    "CircuitConfig": "repro.sim.config",
    "CircuitMode": "repro.sim.config",
    "DeterministicRng": "repro.sim.rng",
    "MeanStat": "repro.sim.stats",
    "NocConfig": "repro.sim.config",
    "Simulator": "repro.sim.kernel",
    "Stats": "repro.sim.stats",
    "SystemConfig": "repro.sim.config",
    "Variant": "repro.sim.config",
    "variant_config": "repro.sim.config",
}

__all__ = list(_EXPORTS)

_lazy_exports(globals(), _EXPORTS)
