"""The full stack on the non-mesh topologies.

The topology abstraction's contract mirrors the hot path's: swapping the
mesh for a torus or a concentrated mesh must change *which* routers a
message visits, never the pipeline's behaviour.  For each new topology
these conformance-matrix cells (``pinned``, see ``tests/conftest.py``)
pin a plain run (synthetic traffic and a full CMP system) to its golden,
as well as a sharded run (including the torus's wraparound boundary
channels) and a checkpointed run killed and resumed mid-flight.  The square mesh
itself is pinned by ``test_hotpath_equivalence.py`` /
``test_shard_equivalence.py``; this file extends the same witnesses to
the new variants.
"""

import pytest

from repro.sim.config import Variant
from repro.validate.conformance import Cell

TOPOLOGIES = ["torus", "cmesh"]


@pytest.fixture(autouse=True)
def _no_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_TOPOLOGY", raising=False)
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize(
    "variant", [Variant.BASELINE, Variant.COMPLETE_NOACK, Variant.TIMED_NOACK],
    ids=lambda v: v.name,
)
def test_traffic_bit_identical(topology, variant, pinned):
    pinned(Cell(variant, 24.0, 1500, topology=topology), "fast")


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_traffic_clean_under_invariant_monitor(topology, pinned):
    """The flit-census / credit / circuit checkers and the paper-property
    oracles must hold on the new adjacencies (the monitor raises on any
    violation), and watching must not perturb the run."""
    audit = pinned(Cell(Variant.COMPLETE_NOACK, 24.0, 1500, topology=topology),
                   "monitored")["audit"]
    assert audit["checks_run"] >= 6 and audit["replies_checked"] > 100


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_full_system_bit_identical(topology, pinned):
    pinned(Cell(Variant.COMPLETE, "fluidanimate", 200, seed=3,
                topology=topology), "fast")


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_sharded_run_bit_identical(topology, pinned):
    pinned(Cell(Variant.COMPLETE, "canneal", 250, warmup=80, seed=3,
                topology=topology), "shards2")


def test_checkpoint_resume_bit_identical_on_torus(pinned):
    pinned(Cell(Variant.COMPLETE_NOACK, "canneal", 250, warmup=80, seed=3,
                topology="torus"), "checkpoint", "killed-resume")
