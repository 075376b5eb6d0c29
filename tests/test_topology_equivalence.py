"""A/B equivalence of the full stack on the non-mesh topologies.

The topology abstraction's contract mirrors the hot path's: swapping the
mesh for a torus or a concentrated mesh must change *which* routers a
message visits, never *how* the two pipelines disagree.  For each new
topology these tests pin bit-identity of the fastpath vs. the reference
pipeline (synthetic traffic and a full CMP system), of a sharded run vs.
the same run in one process (including the torus's wraparound boundary
channels), and of a checkpointed run resumed mid-flight vs. the
uninterrupted original.  The square mesh itself is pinned by
``test_hotpath_equivalence.py`` / ``test_shard_equivalence.py``; this
file extends the same witnesses to the new variants.
"""

import dataclasses
import os
import shutil
import tempfile

import pytest

from repro import build_system, workload_by_name
from repro.noc.traffic import RequestReplyTraffic
from repro.sim.checkpoint import (
    CheckpointPolicy,
    fingerprint,
    read_checkpoint,
    restore_system,
)
from repro.sim.config import SystemConfig, Variant, small_test_config
from repro.sim.shard import run_sharded
from repro.system import CmpSystem
from repro.validate.invariants import InvariantMonitor

TOPOLOGIES = ["torus", "cmesh"]

WARMUP = 80
MEASURE = 250


def with_noc(cfg, topology, fastpath):
    return dataclasses.replace(
        cfg, noc=dataclasses.replace(
            cfg.noc, topology=topology, fastpath=fastpath
        )
    )


@pytest.fixture(autouse=True)
def _no_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_TOPOLOGY", raising=False)
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)


def traffic_run(topology, variant, rate, cycles, fastpath, seed=1,
                invariants=False):
    cfg = with_noc(
        SystemConfig(n_cores=16).with_variant(variant), topology, fastpath
    )
    t = RequestReplyTraffic(cfg, rate, seed=seed)
    if invariants:
        InvariantMonitor(t.net, interval=250).attach(t.sim)
    t.run(cycles)
    t.drain()
    return (
        t.net.stats.snapshot(),
        t.cycle,
        t.requests_sent,
        t.replies_received,
        tuple(t.reply_latencies),
    )


# ---------------------------------------------------------------------------
# Fast pipeline vs. reference pipeline, per topology.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize(
    "variant", [Variant.BASELINE, Variant.COMPLETE_NOACK, Variant.TIMED_NOACK],
    ids=lambda v: v.name,
)
def test_traffic_bit_identical(topology, variant):
    fast = traffic_run(topology, variant, 24.0, 1500, fastpath=True)
    ref = traffic_run(topology, variant, 24.0, 1500, fastpath=False)
    assert fast == ref


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_traffic_clean_under_invariant_monitor(topology):
    """The flit-census / credit / circuit checkers must hold on the new
    adjacencies (the monitor raises on any violation), and watching must
    not perturb the run."""
    watched = traffic_run(topology, Variant.COMPLETE_NOACK, 24.0, 1500,
                          fastpath=True, invariants=True)
    bare = traffic_run(topology, Variant.COMPLETE_NOACK, 24.0, 1500,
                       fastpath=True)
    assert watched == bare


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_full_system_bit_identical(topology):
    def run(fastpath):
        cfg = with_noc(
            small_test_config(16, Variant.COMPLETE, seed=3),
            topology, fastpath,
        )
        system = build_system(cfg, workload_by_name("fluidanimate"))
        cycles = system.run_instructions(200, max_cycles=1_500_000)
        system.drain()
        return system.stats.snapshot(), cycles, system.sim.cycle

    assert run(fastpath=True) == run(fastpath=False)


# ---------------------------------------------------------------------------
# Sharded vs. single-process, per topology.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_sharded_run_bit_identical(topology):
    config = with_noc(small_test_config(16, Variant.COMPLETE, seed=3),
                      topology, fastpath=True)
    system = CmpSystem(config, workload_by_name("canneal"))
    system.warmup(WARMUP)
    start = system.sim.cycle
    finish = system.run_instructions(MEASURE)
    ref = (system.stats.snapshot(), start, finish, system.sim.cycle)

    result = run_sharded(config, "canneal", WARMUP, MEASURE,
                         n_shards=2, check=False)
    assert (result.stats.snapshot(), result.start_cycle,
            result.finish_cycle, result.end_cycle) == ref


# ---------------------------------------------------------------------------
# Checkpoint / resume on a non-mesh topology.
# ---------------------------------------------------------------------------
def test_checkpoint_resume_bit_identical_on_torus():
    config = with_noc(small_test_config(16, Variant.COMPLETE_NOACK, seed=3),
                      "torus", fastpath=True)
    system = CmpSystem(config, workload_by_name("canneal"))
    system.warmup(WARMUP)
    start = system.sim.cycle
    finish = system.run_instructions(MEASURE)
    ref = (system.stats.snapshot(), start, finish, system.sim.cycle)

    config_hash = fingerprint("torus-equivalence")
    directory = tempfile.mkdtemp(prefix="repro-topo-ckpt-")
    try:
        policy = CheckpointPolicy(directory, 600, config_hash)
        system = CmpSystem(config, workload_by_name("canneal"))
        run_start, run_finish = system.run_script(
            WARMUP, MEASURE, policy, keep_history=True
        )
        assert (system.stats.snapshot(), run_start, run_finish,
                system.sim.cycle) == ref

        history = sorted(
            os.path.join(directory, name)
            for name in os.listdir(directory)
            if name.startswith("run.ckpt.")
        )
        assert len(history) >= 2, "interval too coarse for this test"
        _header, payload = read_checkpoint(
            history[len(history) // 2], kind="run", config_hash=config_hash
        )
        data = restore_system(payload)
        resumed = data["system"]
        scratch = tempfile.mkdtemp(prefix="repro-topo-resume-")
        try:
            res_start, res_finish = resumed.run_script(
                run_state=data["run"],
                policy=CheckpointPolicy(scratch, 600, config_hash),
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        assert (resumed.stats.snapshot(), res_start, res_finish,
                resumed.sim.cycle) == ref
    finally:
        shutil.rmtree(directory, ignore_errors=True)
