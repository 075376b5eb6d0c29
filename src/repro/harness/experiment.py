"""Experiment runner: (variant, workload, chip size) -> measured results.

One :class:`RunResult` feeds every table/figure that needs that
configuration, so results are memoised per process and optionally on disk
(``REPRO_CACHE=<path>``, see :mod:`repro.harness.cache`).  A spec is made
explicit where it is submitted (:meth:`RunSpec.scaled` /
:func:`spec_keys`: quanta scaled by ``REPRO_SCALE``, topology named by
``REPRO_TOPOLOGY``) and read as written downstream.  :func:`run_specs` is
the one run path (:func:`run_experiment` is a batch of one) and
:func:`_compute` the one compute step every executor calls.  The default
quanta are sized for pure-Python cycle simulation; the synthetic
workloads are stationary, so modest windows give stable averages.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import field, fields
from functools import partial
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Tuple, Union)

from repro import config as repro_config
from repro._record import record
from repro.circuits.outcomes import outcome_fractions
from repro.noc.topology import MAX_CORES, resolve_topology, topology_grid_side
from repro.harness.cache import ShardedCache, open_cache
from repro.sim.config import NocConfig, SystemConfig, Variant
from repro.sim.stats import Histogram, Stats

if TYPE_CHECKING:
    from repro.telemetry import TelemetryConfig

#: Baseline measurement quantum (instructions per core) at scale 1.0.
MEASURE_INSTRUCTIONS = 3_000
WARMUP_INSTRUCTIONS = 800

#: Representative subset used when a full 22-workload sweep is too slow.
DEFAULT_WORKLOAD_SUBSET = [
    "blackscholes",  # compute-bound, low sharing
    "canneal",  # memory-bound, heavily shared
    "fluidanimate",  # fine-grained write sharing
    "fft",  # streaming, memory bound
    "water_spatial",  # light, low-miss
    "mix",  # multiprogrammed SPEC-style
]


def default_workloads(full: Optional[bool] = None) -> List[str]:
    """Workload names to sweep (env ``REPRO_FULL=1`` for all 22)."""
    if repro_config.resolve("full", override=full):
        from repro.cpu.workloads import ALL_WORKLOADS

        return [w.name for w in ALL_WORKLOADS]
    return list(DEFAULT_WORKLOAD_SUBSET)


def _scaled_quanta(measure: int, warmup: int, factor: float
                   ) -> Tuple[int, int]:
    """The one scaling rule: a run's quanta under ``REPRO_SCALE`` =
    ``factor``.  Not idempotent (the floors), so scale a spec once."""
    if factor == 1.0:
        return measure, warmup
    return max(200, int(measure * factor)), max(100, int(warmup * factor))


def _format_key(n_cores: int, variant: str, workload: str, seed: int,
                measure: int, warmup: int, topology: str) -> str:
    """The one store-key format.  Mesh runs keep their historical keys so
    existing stores stay valid; other topologies get their own entries."""
    base = f"{n_cores}/{variant}/{workload}/{seed}/{measure}/{warmup}"
    return base if topology == "mesh" else f"{base}/{topology}"


#: The most instructions per core a run may measure or warm up for,
#: far beyond any figure's needs (the paper's windows are 500M cycles).
MAX_INSTRUCTIONS = 10 ** 9

#: ``(field, smallest, largest)`` of each integer :class:`RunSpec` field.
_SPEC_BOUNDS = (("n_cores", 1, MAX_CORES), ("seed", 0, math.inf),
                ("measure_instructions", 1, MAX_INSTRUCTIONS),
                ("warmup_instructions", 0, MAX_INSTRUCTIONS))


@record(frozen=True)
class RunSpec:
    """Everything defining one measured simulation."""

    n_cores: int
    variant: Variant
    workload: str
    seed: int = 1
    measure_instructions: int = MEASURE_INSTRUCTIONS
    warmup_instructions: int = WARMUP_INSTRUCTIONS
    #: Attach a :class:`~repro.telemetry.Telemetry` bundle to the measured
    #: phase.  Telemetry is observation-only (results are bit-identical),
    #: so this field is deliberately NOT part of :meth:`key`: observed and
    #: unobserved runs share cache entries.
    telemetry: Optional[TelemetryConfig] = None
    #: Network topology ("mesh"/"torus"/"cmesh"); "" is mesh, but
    #: :meth:`scaled` and :func:`spec_keys` name it from REPRO_TOPOLOGY.
    topology: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.variant, Variant):
            raise repro_config.ConfigError(
                "variant", "RunSpec.variant",
                f"RunSpec.variant must be a Variant, got {self.variant!r}")
        for name, low, high in _SPEC_BOUNDS:
            value = getattr(self, name)
            if type(value) is not int or not low <= value <= high:
                raise repro_config.ConfigError(
                    name, f"RunSpec.{name}",
                    f"RunSpec.{name} must be an integer in {low}..{high}, "
                    f"got {value!r}")

    def scaled(self) -> "RunSpec":
        """The explicit run this spec names where it is submitted: quanta
        scaled by ``REPRO_SCALE``, topology named (``""`` is
        ``REPRO_TOPOLOGY``, then mesh) and tiled by ``n_cores``."""
        factor = repro_config.resolve("scale")
        topology = resolve_topology(self.topology)
        topology_grid_side(topology, self.n_cores)
        if factor == 1.0 and topology == self.topology:
            return self
        return RunSpec(
            self.n_cores, self.variant, self.workload, self.seed,
            *_scaled_quanta(self.measure_instructions,
                            self.warmup_instructions, factor),
            self.telemetry, topology,
        )

    def key(self) -> str:
        return _format_key(
            self.n_cores, self.variant.value, self.workload, self.seed,
            self.measure_instructions, self.warmup_instructions,
            self.topology or "mesh")

    @property
    def observed(self) -> bool:
        return self.telemetry is not None and self.telemetry.enabled

    def label(self) -> str:
        """Filesystem-safe name for telemetry artifacts of this run."""
        base = (
            f"{self.variant.value}_{self.workload}_{self.n_cores}c"
            f"_s{self.seed}"
        )
        return (base if self.topology in ("", "mesh")
                else f"{base}_{self.topology}")


def spec_keys(specs: List[RunSpec]) -> List[str]:
    """Each spec's store key, exactly ``spec.scaled().key()``, in order.

    A batch reads ``REPRO_SCALE`` once, resolves each distinct
    ``topology`` once (so ``REPRO_TOPOLOGY`` at most once), checks that
    each distinct ``n_cores`` tiles it, and builds no scaled
    :class:`RunSpec`.  A bad value raises the per-spec spelling's
    :class:`~repro.config.ConfigError`.
    """
    if not specs:
        return []
    factor = repro_config.resolve("scale")
    topologies: Dict[str, str] = {}
    tiled = set()
    keys = []
    for spec in specs:
        topology = topologies.get(spec.topology)
        if topology is None:
            topology = topologies[spec.topology] = \
                resolve_topology(spec.topology)
        if (topology, spec.n_cores) not in tiled:
            topology_grid_side(topology, spec.n_cores)
            tiled.add((topology, spec.n_cores))
        keys.append(_format_key(
            spec.n_cores, spec.variant.value, spec.workload, spec.seed,
            *_scaled_quanta(spec.measure_instructions,
                            spec.warmup_instructions, factor),
            topology))
    return keys


def unobserved_by_key(keys: List[str], specs: List[RunSpec]
                      ) -> Dict[str, RunSpec]:
    """``{key: spec}`` of the unobserved ``specs``, the first spec of each
    key, in order: the dict :func:`run_specs` takes."""
    unique: Dict[str, RunSpec] = {}
    for key, spec in zip(keys, specs):
        if not spec.observed:
            unique.setdefault(key, spec)
    return unique


def spec_config(spec: RunSpec) -> SystemConfig:
    """The system configuration ``spec`` runs, read as written
    (``topology=""`` is mesh)."""
    return SystemConfig(
        n_cores=spec.n_cores, seed=spec.seed,
        noc=NocConfig(topology=spec.topology or "mesh"),
    ).with_variant(spec.variant)


def prewarm_group(spec: RunSpec) -> Optional[tuple]:
    """What a run's functional prewarm depends on: the
    :func:`repro.system.prewarm_key` of the system it builds.  Specs with
    the same group (they differ at most in variant and instruction
    counts) leave the same prewarmed state, which
    :func:`repro.system.prewarm` keeps for the next run when they run
    back to back.  An unknown program raises ``ConfigError``."""
    from repro.cpu.workloads import workload_by_name
    from repro.system import prewarm_key

    return prewarm_key(spec_config(spec), workload_by_name(spec.workload))


@record
class RunResult:
    """Flattened measurements of one run (everything the figures need).

    A failed run (deadlock / invariant violation under graceful
    degradation) carries ``error``/``error_kind``/``crash_report``
    instead of measurements; consumers must check :attr:`failed` before
    dividing by ``exec_cycles``.
    """

    spec_key: str
    n_cores: int
    variant: str
    workload: str
    exec_cycles: int
    counters: Dict[str, int] = field(default_factory=dict)
    means: Dict[str, float] = field(default_factory=dict)
    outcomes: Dict[str, float] = field(default_factory=dict)
    #: Full latency distributions, JSON-serialised (string bucket keys);
    #: use :meth:`histogram` / :meth:`percentile` to query them.
    histograms: Dict[str, dict] = field(default_factory=dict)
    energy_dynamic: float = 0.0
    energy_static: float = 0.0
    error: Optional[str] = None
    error_kind: Optional[str] = None
    crash_report: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def energy_total(self) -> float:
        return self.energy_dynamic + self.energy_static

    def counter(self, key: str) -> int:
        return self.counters.get(key, 0)

    def mean(self, key: str) -> float:
        return self.means.get(key, 0.0)

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        return {
            key: value
            for key, value in self.counters.items()
            if key.startswith(prefix)
        }

    def histogram(self, key: str) -> Optional[Histogram]:
        """The recorded distribution for ``key`` (None if not recorded)."""
        data = self.histograms.get(key)
        if data is None:
            return None
        hist = Histogram(data.get("bucket_width", 1))
        hist.count = data["count"]
        hist.buckets = {int(b): n for b, n in data["buckets"].items()}
        return hist

    def percentile(self, key: str, p: float) -> float:
        """Percentile ``p`` of the recorded distribution for ``key``.

        Prefers the full histogram; results loaded from pre-histogram
        cache entries fall back to the precomputed ``<key>.p<p>`` means
        (0.0 when neither exists).
        """
        hist = self.histogram(key)
        if hist is not None:
            return hist.percentile(p)
        return self.means.get(f"{key}.p{int(p)}", 0.0)

    def to_json(self) -> dict:
        return self.__dict__.copy()

    @staticmethod
    def from_json(data: dict) -> "RunResult":
        if tuple(data) == _RESULT_FIELDS:
            # What to_json wrote: one __dict__ update fills the result.
            result = RunResult.__new__(RunResult)
            result.__dict__.update(data)
            return result
        # Anything else gets the defaults and the TypeErrors of __init__.
        return RunResult(**data)


#: RunResult's field names in field order: the keys of every to_json().
_RESULT_FIELDS = tuple(f.name for f in fields(RunResult))

_memo: Dict[str, RunResult] = {}


@contextmanager
def fresh_memo():
    """Run the block with an empty in-process result memo (so a run in it
    really simulates, or really reads the store), then put back what was
    memoised before; results the block itself memoised are dropped."""
    saved = dict(_memo)
    _memo.clear()
    try:
        yield
    finally:
        _memo.clear()
        _memo.update(saved)

#: Instruments + artifact paths of the most recent telemetry-enabled run
#: in this process (the CLI ``trace``/``profile`` commands read it).
_last_telemetry: Optional[dict] = None


def last_telemetry() -> Optional[dict]:
    """``{"telemetry": Telemetry, "paths": {...}, "spec_key": str}`` of the
    most recent observed run, or None if none ran in this process."""
    return _last_telemetry


def _serialize_histograms(stats: Stats) -> Dict[str, dict]:
    """Stats histograms -> the JSON-stable shape RunResult carries."""
    return {
        key: {
            "bucket_width": hist.bucket_width,
            "count": hist.count,
            "buckets": {str(b): n for b, n in hist.buckets.items()},
        }
        for key, hist in stats.histograms.items()
    }


def _disk_cache() -> Optional[ShardedCache]:
    """The shared result store (``REPRO_CACHE``), if configured."""
    path = repro_config.resolve("cache")
    return open_cache(path) if path else None


def load_stored(wanted: Dict[str, RunSpec]) -> Dict[str, RunSpec]:
    """Memoise every stored result among ``wanted`` (``{scaled key:
    spec}``) with one read per store shard
    (:meth:`ShardedCache.load_many`); return the misses, in order."""
    cache = _disk_cache() if wanted else None
    if cache is None:
        return wanted
    misses = dict(wanted)
    for key, entry in cache.load_many(wanted).items():
        try:
            _memo[key] = RunResult.from_json(entry)
        except TypeError:
            continue  # entry from an incompatible RunResult shape
        del misses[key]
    return misses


def degrades(fail_fast: Optional[bool] = None) -> bool:
    """Whether an assembled batch turns a simulation failure into a
    failure :class:`RunResult` instead of raising: unless ``fail_fast``,
    else ``REPRO_FAILFAST``, is set (the one reading of it)."""
    return not repro_config.resolve("failfast", override=fail_fast)


def run_specs(specs: Union[Iterable[RunSpec], Dict[str, RunSpec]],
              jobs: Optional[int] = None, safe: bool = False,
              timeout: Optional[float] = None,
              echo: Optional[Callable[[str], None]] = None
              ) -> Dict[str, RunResult]:
    """Look up or compute a batch: ``{scaled key: RunResult}`` for its
    unobserved specs, in order, every result memoised.

    The one run path: the only place a spec is looked up.  ``specs`` is
    :func:`unobserved_by_key` of a batch and its :func:`spec_keys` (what
    :func:`repro.api.submit` passes), or any iterable of specs, keyed
    here.  Memo hits come first, then stored results (:func:`load_stored`,
    each shard read once).  Each miss is made explicit once
    (:meth:`RunSpec.scaled`) and handed with its key to :func:`_compute`.
    The misses run one prewarm group after another (:func:`prewarm_group`,
    which refuses an unknown program), here or across ``jobs`` workers
    (``REPRO_JOBS``, :func:`repro.harness.parallel.run_tasks`).  Observed
    specs are skipped (:func:`run_experiment` runs them).  With ``safe``
    a simulation failure becomes a failure RunResult.
    """
    if isinstance(specs, dict):
        unique = specs
    else:
        specs = list(specs)
        unique = unobserved_by_key(spec_keys(specs), specs)
    misses = load_stored({key: spec for key, spec in unique.items()
                          if key not in _memo})
    groups: Dict[tuple, Dict[str, RunSpec]] = {}
    for key, spec in misses.items():
        spec = spec.scaled()
        groups.setdefault(prewarm_group(spec), {})[key] = spec
    tasks = {key: (spec, key, safe)
             for group in groups.values() for key, spec in group.items()}
    if len(tasks) > 1 and repro_config.resolve_jobs(jobs) > 1:
        from repro.harness import parallel

        _memo.update(parallel.run_tasks(tasks, worker=_compute_task,
                                        jobs=jobs, timeout=timeout,
                                        echo=echo))
    else:
        for key, task in tasks.items():
            _memo[key] = _compute(*task)
    return {key: _memo[key] for key in unique}


def _run_one(spec: RunSpec, safe: bool) -> RunResult:
    if spec.observed:
        # Observed runs bypass the memo and store READ on purpose: their
        # whole point is regenerating trace/metric artifacts.  Results
        # stay bit-identical, so they still land in the same entries.
        spec = spec.scaled()
        return _compute(spec, spec.key(), safe)
    [result] = run_specs([spec], safe=safe).values()
    return result


def run_experiment(spec: RunSpec) -> RunResult:
    """One spec (memoised per process and in the store): a one-spec
    :func:`run_specs` batch, or for an observed spec :func:`_compute`
    directly.  A simulation failure raises."""
    return _run_one(spec, False)


def run_experiment_safe(spec: RunSpec) -> RunResult:
    """Like :func:`run_experiment`, but a simulation failure becomes a
    failure :class:`RunResult` (see :func:`_compute`)."""
    return _run_one(spec, True)


def crash_dir() -> str:
    """Directory for crash reports (env ``REPRO_CRASH_DIR``)."""
    return repro_config.resolve("crash_dir")


def _assemble_result(spec: RunSpec, key: str, config: SystemConfig,
                     stats: Stats, exec_cycles: int) -> RunResult:
    """Measured stats -> the flattened RunResult the figures consume.

    Every engine's stats pass through here, so results are
    byte-identical whichever one ran.
    """
    from repro.power.energy import network_energy

    energy = network_energy(config, stats, exec_cycles)
    means = {k: m.mean for k, m in stats.means.items()}
    for cls in ("req", "crep", "norep"):
        for p in (50, 95, 99):
            means[f"lat.net.{cls}.p{p}"] = stats.percentile(
                f"lat.net.{cls}", p
            )
    return RunResult(
        spec_key=key,
        n_cores=spec.n_cores,
        variant=spec.variant.value,
        workload=spec.workload,
        exec_cycles=exec_cycles,
        counters=dict(stats.counters),  # flushed by run/drain
        means=means,
        outcomes={o.value: f for o, f in outcome_fractions(stats).items()},
        histograms=_serialize_histograms(stats),
        energy_dynamic=energy.dynamic,
        energy_static=energy.static,
    )


_warned_observed_shards = False


def _resolved_shards(spec: RunSpec, config: SystemConfig) -> int:
    """Shard count for this run (1 = classic single-process engine).

    Observed (telemetry-attached) runs always execute in one process:
    instruments hold references to live simulation objects, which cannot
    span processes.  Results are bit-identical either way, so this is
    purely an execution-engine decision.
    """
    shards = repro_config.resolve("shards")
    if shards > 1:
        from repro.sim.shard import resolve_shards

        shards = resolve_shards(config)  # the router-grid height check
    if shards > 1 and spec.observed:
        global _warned_observed_shards
        if not _warned_observed_shards:
            _warned_observed_shards = True
            import logging

            logging.getLogger("repro.harness.experiment").info(
                "telemetry-observed runs execute single-process; "
                "ignoring the configured %d shards for them", shards,
            )
        return 1
    return shards


def _run_sharded(spec: RunSpec, config: SystemConfig, shards: int):
    """The sharded engine -> ``(stats, start_cycle, finish_cycle)``."""
    from repro.sim.shard import run_sharded

    sharded = run_sharded(
        config, spec.workload, spec.warmup_instructions,
        spec.measure_instructions, n_shards=shards,
        check=repro_config.resolve("check"),
        check_interval=repro_config.resolve("check_interval"),
    )
    return sharded.stats, sharded.start_cycle, sharded.finish_cycle


def _run_local(spec: RunSpec, key: str, config: SystemConfig):
    """The single-process engine -> ``(stats, start_cycle, finish_cycle)``:
    a fresh system, one :meth:`~repro.system.CmpSystem.run_script`."""
    from repro.cpu.workloads import workload_by_name
    from repro.system import build_system

    system = build_system(config, workload_by_name(spec.workload))
    if repro_config.resolve("check"):
        from repro.validate import InvariantMonitor

        InvariantMonitor(
            system.network, system=system,
            interval=repro_config.resolve("check_interval"),
        ).attach(system.sim)
    # Telemetry attaches where measurement starts: warm-up ends with a
    # stats reset, which would corrupt the interval-delta probes.
    telem = None
    if spec.observed:
        from repro.telemetry import Telemetry

        telem = Telemetry(spec.telemetry)
    try:
        start, finish = system.run_script(
            spec.warmup_instructions, spec.measure_instructions,
            at_measure=partial(telem.attach, system) if telem else None,
        )
    finally:
        if telem is not None:
            telem.detach()
    if telem is not None:
        global _last_telemetry
        _last_telemetry = {
            "telemetry": telem,
            "paths": telem.export(spec.label()),
            "spec_key": key,
        }
    return system.stats, start, finish


def _compute(spec: RunSpec, key: str, safe: bool = False) -> RunResult:
    """Simulate the explicit ``spec`` under store key ``key``; memoise and
    store the result.

    The one compute step behind every executor: :func:`run_specs`' serial
    loop and its workers, the job daemon's workers, and observed runs.
    It looks nothing up and scales nothing.

    With ``REPRO_CHECK=1`` an :class:`~repro.validate.InvariantMonitor`
    audits the run every ``REPRO_CHECK_INTERVAL`` cycles (default 2000).
    The monitor is read-only, so checked results are bit-identical to
    unchecked ones and share the same cache entries.

    With ``REPRO_SHARDS=<n>`` the run executes on the sharded engine
    (:mod:`repro.sim.shard`): the mesh is split into ``n`` row bands
    simulated in ``n`` worker processes.  Sharded results are
    bit-identical to single-process ones, so they share the same memo
    and disk-cache entries.

    A run keeps no checkpoint.  One that is killed is computed again
    from the start: a worker's death makes its fleet rerun the task, and
    a rerun batch finds every result that finished in the store.

    With ``safe`` a :class:`~repro.sim.kernel.SimulationError`
    (deadlock, invariant violation, ...) becomes a failure
    :class:`RunResult` with the crash report saved under
    :func:`crash_dir`, so one sick configuration cannot abort a whole
    sweep.  Failure results are memoised in-process only - never written
    to the shared store.

    A computed run frees its chip before it returns, on either path: the
    chip is cyclic garbage, so that takes an explicit :func:`gc.collect`,
    without which the next run's chip is built beside the dead one.  An
    observed run's chip outlives it in :func:`last_telemetry`.
    """
    from repro.sim.kernel import SimulationError

    try:
        config = spec_config(spec)
        shards = _resolved_shards(spec, config)
        if shards > 1:
            stats, start, finish = _run_sharded(spec, config, shards)
        else:
            stats, start, finish = _run_local(spec, key, config)
    except SimulationError as exc:
        if not safe:
            raise
        result = RunResult(
            spec_key=key,
            n_cores=spec.n_cores,
            variant=spec.variant.value,
            workload=spec.workload,
            exec_cycles=0,
            error=str(exc),
            error_kind=type(exc).__name__,
            crash_report=_save_crash(key, exc),
        )
    else:
        result = _assemble_result(spec, key, config, stats, finish - start)
        del stats  # its flushers reach every router, NI, cache and core
    gc.collect()
    _memo[key] = result
    cache = None if result.failed else _disk_cache()
    if cache is not None:
        cache.store(key, result.to_json())
    return result


def _compute_task(task: Tuple[RunSpec, str, bool]) -> RunResult:
    """:func:`_compute` of an ``(explicit spec, key, safe)`` worker task."""
    return _compute(*task)


def _save_crash(key: str, exc: BaseException) -> Optional[str]:
    from repro.validate.forensics import save_crash_report

    report = getattr(exc, "report", None)
    if report is None:
        report = {"kind": type(exc).__name__, "error": str(exc)}
    elif hasattr(report, "data"):
        report.data["spec"] = key
    try:
        return save_crash_report(report, crash_dir(), key)
    except OSError:
        return None  # an unwritable crash dir must not mask the failure
