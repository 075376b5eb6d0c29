"""Cycle-level NoC substrate: pluggable topologies, wormhole routers, NIs."""

from repro import _lazy_exports

#: Public name -> the module that defines it.
_EXPORTS = {
    "CMesh": "repro.noc.topology",
    "ConfigError": "repro.noc.topology",
    "Flit": "repro.noc.flit",
    "LOCAL": "repro.noc.topology",
    "Mesh": "repro.noc.topology",
    "Message": "repro.noc.flit",
    "Network": "repro.noc.network",
    "Port": "repro.noc.topology",
    "RequestReplyTraffic": "repro.noc.traffic",
    "TOPOLOGY_CHOICES": "repro.noc.topology",
    "Topology": "repro.noc.topology",
    "Torus": "repro.noc.topology",
    "build_topology": "repro.noc.topology",
    "make_topology": "repro.noc.topology",
    "opposite": "repro.noc.topology",
    "resolve_topology": "repro.noc.topology",
    "route_xy": "repro.noc.routing",
    "route_yx": "repro.noc.routing",
}

__all__ = list(_EXPORTS)

_lazy_exports(globals(), _EXPORTS)
