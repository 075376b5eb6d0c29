"""Workload profiles standing in for the paper's benchmark suites.

The paper runs ten PARSEC applications, eleven SPLASH-2 applications
(scaled inputs from PARSEC 3.0) and one SPEC CPU2006 multiprogrammed mix.
We cannot ship those proprietary workloads, so each application is modelled
as a parameterised synthetic stream (see :mod:`repro.cpu.trace`) whose
knobs are chosen from the applications' published characterisations
(working-set size, sharing degree, read/write mix, memory intensity).
Absolute per-application numbers will differ from the paper's; the
*distribution* of behaviours - compute-bound vs. memory-bound,
low-sharing vs. contended - is what these profiles preserve.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List

from repro._record import record
from repro.config import ConfigError
from repro.cpu.trace import AccessStream, StreamParams


@record(frozen=True)
class WorkloadProfile:
    """A named workload: one stream parameterisation per core."""

    name: str
    suite: str  # "parsec" | "splash2" | "mix"
    params: StreamParams

    def streams(self, n_cores: int, line_bytes: int, rng: Random
                ) -> List[AccessStream]:
        """Per-core access streams (deterministic in the provided RNG)."""
        return [
            AccessStream(self.params, core, line_bytes,
                         Random(rng.getrandbits(64)))
            for core in range(n_cores)
        ]


def _p(mem: float, wr: float, sh: float, mid: float, hot: int,
       mid_lines: int, shared_lines: int, shw: float,
       cold: float = 0.0008) -> StreamParams:
    return StreamParams(
        mem_ratio=mem, write_frac=wr, shared_frac=sh, mid_frac=mid,
        cold_frac=cold, hot_lines=hot, mid_lines=mid_lines,
        shared_lines=shared_lines, shared_write_frac=shw,
    )


#: PARSEC applications (the paper's selection).
_PARSEC: Dict[str, StreamParams] = {
    # mostly data-parallel with small working sets and little sharing
    "blackscholes": _p(0.22, 0.15, 0.02, 0.0078, 96, 2048, 128, 0.013, 0.0003),
    "bodytrack": _p(0.28, 0.20, 0.08, 0.0182, 128, 3072, 256, 0.025, 0.0005),
    # canneal: huge working set, heavy pointer chasing, shared netlist
    "canneal": _p(0.32, 0.25, 0.20, 0.0488, 192, 8192, 1024, 0.050, 0.0020),
    "dedup": _p(0.30, 0.30, 0.12, 0.0312, 160, 6144, 512, 0.062, 0.0010),
    "ferret": _p(0.30, 0.22, 0.10, 0.0273, 160, 6144, 384, 0.030, 0.0008),
    # fluidanimate: fine-grained neighbour sharing with many small writes
    "fluidanimate": _p(0.30, 0.35, 0.18, 0.0247, 128, 4096, 512, 0.087, 0.0006),
    "raytrace": _p(0.28, 0.10, 0.15, 0.0208, 160, 6144, 768, 0.007, 0.0006),
    "swaptions": _p(0.20, 0.18, 0.02, 0.0065, 80, 1024, 64, 0.013, 0.0002),
    "vips": _p(0.30, 0.28, 0.06, 0.0247, 144, 5120, 256, 0.030, 0.0008),
    # x264: streaming frames, producer-consumer pipeline sharing
    "x264": _p(0.31, 0.25, 0.10, 0.0338, 144, 6144, 512, 0.075, 0.0012),
}

#: SPLASH-2 applications with PARSEC 3.0 scaled inputs.
_SPLASH2: Dict[str, StreamParams] = {
    "barnes": _p(0.30, 0.22, 0.15, 0.0208, 160, 4096, 512, 0.045, 0.0006),
    "cholesky": _p(0.29, 0.25, 0.10, 0.0273, 160, 5120, 384, 0.037, 0.0008),
    # fft / ocean: large strided working sets, memory bound
    "fft": _p(0.33, 0.30, 0.08, 0.0455, 128, 8192, 256, 0.037, 0.0018),
    "lu_cb": _p(0.30, 0.28, 0.08, 0.0208, 160, 4096, 256, 0.030, 0.0006),
    "lu_ncb": _p(0.30, 0.28, 0.08, 0.0312, 144, 6144, 256, 0.030, 0.0008),
    "ocean_cp": _p(0.34, 0.30, 0.10, 0.0442, 128, 8192, 384, 0.050, 0.0016),
    "ocean_ncp": _p(0.34, 0.30, 0.10, 0.0533, 128, 8192, 384, 0.050, 0.0022),
    "radiosity": _p(0.28, 0.20, 0.18, 0.0182, 160, 4096, 768, 0.037, 0.0005),
    "volrend": _p(0.26, 0.15, 0.12, 0.0143, 144, 3072, 512, 0.020, 0.0004),
    # water: small working sets, mostly compute
    "water_nsquared": _p(0.24, 0.20, 0.06, 0.0091, 112, 2048, 192, 0.025, 0.0003),
    "water_spatial": _p(0.24, 0.20, 0.05, 0.0078, 112, 2048, 192, 0.025, 0.0003),
}

#: SPEC CPU2006-like per-application profiles for the multiprogrammed mix
#: (no sharing; large private working sets per the paper's selection).
_SPEC: Dict[str, StreamParams] = {
    "mcf": _p(0.35, 0.25, 0.0, 0.0715, 96, 8192, 1, 0.000, 0.0035),
    "lbm": _p(0.34, 0.40, 0.0, 0.0585, 96, 8192, 1, 0.000, 0.0030),
    "milc": _p(0.33, 0.30, 0.0, 0.0520, 112, 8192, 1, 0.000, 0.0025),
    "soplex": _p(0.32, 0.25, 0.0, 0.0455, 128, 6144, 1, 0.000, 0.0020),
    "libquantum": _p(0.30, 0.25, 0.0, 0.0553, 96, 8192, 1, 0.000, 0.0028),
    "omnetpp": _p(0.32, 0.28, 0.0, 0.0390, 128, 6144, 1, 0.000, 0.0018),
    "astar": _p(0.30, 0.22, 0.0, 0.0292, 144, 5120, 1, 0.000, 0.0012),
    "sphinx3": _p(0.31, 0.15, 0.0, 0.0358, 144, 5120, 1, 0.000, 0.0014),
    "gcc": _p(0.29, 0.25, 0.0, 0.0260, 160, 4096, 1, 0.000, 0.0010),
    "bwaves": _p(0.33, 0.30, 0.0, 0.0488, 112, 8192, 1, 0.000, 0.0022),
    "zeusmp": _p(0.31, 0.28, 0.0, 0.0358, 128, 6144, 1, 0.000, 0.0016),
    "cactusADM": _p(0.31, 0.30, 0.0, 0.0390, 128, 6144, 1, 0.000, 0.0018),
    "leslie3d": _p(0.32, 0.28, 0.0, 0.0423, 112, 6144, 1, 0.000, 0.0018),
    "GemsFDTD": _p(0.33, 0.30, 0.0, 0.0520, 112, 8192, 1, 0.000, 0.0024),
    "wrf": _p(0.30, 0.25, 0.0, 0.0292, 144, 5120, 1, 0.000, 0.0012),
    "xalancbmk": _p(0.30, 0.22, 0.0, 0.0325, 144, 5120, 1, 0.000, 0.0014),
}


@record(frozen=True)
class MultiprogrammedMix(WorkloadProfile):
    """SPEC-style mix: each core runs an independent application.

    For 16 cores each of the 16 applications appears once; for 64 cores
    each appears four times (the paper's construction), both randomly
    distributed over the cores.
    """

    def streams(self, n_cores: int, line_bytes: int, rng: Random
                ) -> List[AccessStream]:
        apps = list(_SPEC.items())
        copies = max(1, -(-n_cores // len(apps)))
        assignment = (apps * copies)[:n_cores]
        rng.shuffle(assignment)
        return [
            AccessStream(params, core, line_bytes, Random(rng.getrandbits(64)))
            for core, (_name, params) in enumerate(assignment)
        ]


PARALLEL_WORKLOADS: List[WorkloadProfile] = [
    *(WorkloadProfile(name, "parsec", params) for name, params in _PARSEC.items()),
    *(WorkloadProfile(name, "splash2", params) for name, params in _SPLASH2.items()),
]

MULTIPROGRAMMED_MIX = MultiprogrammedMix("mix", "mix", StreamParams())

ALL_WORKLOADS: List[WorkloadProfile] = PARALLEL_WORKLOADS + [MULTIPROGRAMMED_MIX]


def workload_by_name(name: str) -> WorkloadProfile:
    for workload in ALL_WORKLOADS:
        if workload.name == name:
            return workload
    raise ConfigError("workload", "RunSpec.workload", (
        f"unknown workload {name!r} (RunSpec.workload); valid workloads: "
        + ", ".join(w.name for w in ALL_WORKLOADS)))
