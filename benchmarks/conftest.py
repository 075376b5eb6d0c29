"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
asserts its qualitative shape (who wins, orderings, signs).  Default sizes
are laptop-friendly; environment variables scale them up for full
reproduction runs:

    REPRO_BENCH_CORES=64   chip size for the sweeps (default 16)
    REPRO_SCALE=4          longer simulations (multiplies instruction quanta)
    REPRO_FULL=1           all 22 workloads instead of the 3-workload subset
    REPRO_CACHE=path.json  reuse simulation results across processes
                           (crash-safe: concurrent writers merge entries)
    REPRO_JOBS=4           precompute the whole benchmark matrix across
                           worker processes before the benchmarks run
                           (0 = one worker per CPU core)
"""

from __future__ import annotations

import os

import pytest


def bench_cores() -> int:
    return int(os.environ.get("REPRO_BENCH_CORES", "16"))


def bench_workloads() -> list:
    from repro import config
    from repro.harness.experiment import default_workloads

    if config.resolve("full"):
        return default_workloads(full=True)
    return ["canneal", "fluidanimate", "water_spatial"]


@pytest.fixture
def cores() -> int:
    return bench_cores()


@pytest.fixture
def workloads() -> list:
    return bench_workloads()


@pytest.fixture(scope="session", autouse=True)
def parallel_prefetch():
    """With REPRO_JOBS or REPRO_SERVICE set, warm the memo for the whole
    benchmark matrix.

    The specs the table/figure benchmarks need are all independent, so
    they are computed across worker processes (or the job daemon) once
    up front; each benchmark then assembles its numbers from memo hits.
    Results are bit-identical to serial execution (same specs, same
    seeds).
    """
    from repro import api
    from repro.harness import figures

    api.prefetch(figures.report_specs(bench_cores(), bench_workloads()))
    yield
