"""DSENT-substitute analytical area and energy models for the NoC."""

from repro import _lazy_exports

#: Public name -> the module that defines it.
_EXPORTS = {
    "NetworkEnergyModel": "repro.power.energy",
    "RouterAreaModel": "repro.power.area",
    "area_savings": "repro.power.area",
    "network_energy": "repro.power.energy",
    "router_area": "repro.power.area",
}

__all__ = list(_EXPORTS)

_lazy_exports(globals(), _EXPORTS)
