"""Reactive Circuits: dynamic construction of circuits for reactive traffic
in homogeneous CMPs - a full reproduction of the DATE 2014 paper.

Quickstart::

    from repro import SystemConfig, Variant, build_system, workload_by_name

    config = SystemConfig(n_cores=16).with_variant(Variant.COMPLETE_NOACK)
    system = build_system(config, workload_by_name("canneal"))
    system.warmup(2_000)
    cycles = system.run_instructions(10_000)

See :mod:`repro.harness` for the table/figure reproduction entry points.

``import repro`` loads no submodule: each public name imports its module
on first use (PEP 562), so a process pays only for the code it runs.
"""

__version__ = "1.0.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    "Telemetry": "repro.telemetry",
    "TelemetryConfig": "repro.telemetry",
    "Partition": "repro.partition",
    "build_partitioned_system": "repro.partition",
    "quadrants": "repro.partition",
    "ALL_WORKLOADS": "repro.cpu.workloads",
    "CacheConfig": "repro.sim.config",
    "CircuitConfig": "repro.sim.config",
    "CircuitMode": "repro.sim.config",
    "CmpSystem": "repro.system",
    "MULTIPROGRAMMED_MIX": "repro.cpu.workloads",
    "NocConfig": "repro.sim.config",
    "PARALLEL_WORKLOADS": "repro.cpu.workloads",
    "ReplyOutcome": "repro.circuits.outcomes",
    "SystemConfig": "repro.sim.config",
    "Variant": "repro.sim.config",
    "WorkloadProfile": "repro.cpu.workloads",
    "build_system": "repro.system",
    "compare_variants": "repro.api",
    "run_matrix": "repro.api",
    "outcome_fractions": "repro.circuits.outcomes",
    "variant_config": "repro.sim.config",
    "workload_by_name": "repro.cpu.workloads",
}

__all__ = list(_EXPORTS)


def _lazy_exports(namespace: dict, exports: dict) -> None:
    """Give the package whose globals are ``namespace`` a PEP 562
    ``__getattr__`` / ``__dir__``: each name of ``exports`` (name ->
    module) imports its module on first use, then stays bound."""

    def __getattr__(name):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}")
        value = namespace[name] = getattr(
            __import__(module, fromlist=[name]), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    namespace.update(__getattr__=__getattr__, __dir__=__dir__)


_lazy_exports(globals(), _EXPORTS)
