"""Telemetry must be a pure observer: bit-identity + golden trace.

The conformance-matrix cells (``pinned``, see ``tests/conftest.py``) run
a simulation with every telemetry instrument attached and require the
*bit-identical* stats counters, means, histograms and finish cycles of
the bare run's committed golden.  This is the contract that lets
telemetry ship enabled in experiments without invalidating the result
cache.

The golden-file test pins the Chrome-trace exporter's schema: a
deterministic two-message run on the scripted chip must serialise exactly
to ``tests/golden/trace_small.json`` (regenerate with
``REPRO_REGOLDEN=1 pytest tests/test_telemetry_ab.py -k golden``).
"""

import itertools
import json
import os

import repro.noc.flit as flit_mod
from repro.sim.config import Variant
from repro.telemetry import SpanRecorder, TelemetryConfig
from repro.validate.conformance import Cell

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "trace_small.json")


def _assert_substantive_artifacts(directory):
    """The observation itself was substantive, not vacuously empty."""
    (trace_file,) = os.listdir(directory / "trace")
    assert json.load(open(directory / "trace" / trace_file))["traceEvents"]
    (csv,) = [f for f in os.listdir(directory / "telemetry")
              if f.endswith("_metrics.csv")]
    rows = open(directory / "telemetry" / csv).read().splitlines()
    streams = rows[0].split(",")
    assert len(streams) >= 6 and "circuit_hit_rate" in streams
    assert len(rows) > 2
    (profile,) = [f for f in os.listdir(directory / "telemetry")
                  if f.endswith("_profile.txt")]
    assert "Router" in open(directory / "telemetry" / profile).read()


def test_traffic_run_is_bit_identical_under_full_telemetry(tmp_path, pinned):
    pinned(Cell(Variant.COMPLETE_NOACK, 40.0, 2000, seed=11), "observed",
           workdir=tmp_path)
    _assert_substantive_artifacts(tmp_path)


def test_run_experiment_bit_identical_with_telemetry(tmp_path, pinned):
    """Same cache key as the plain spec, but the observed run bypasses
    the memo and re-runs, leaving the artifacts the acceptance criteria
    call for."""
    cell = Cell(Variant.COMPLETE_NOACK, "water_spatial", 250, warmup=80,
                paper_caches=True)
    assert cell.spec(TelemetryConfig()).key() == cell.spec().key()
    pinned(cell, "api+observed", workdir=tmp_path)
    _assert_substantive_artifacts(tmp_path)


def _scripted_trace(chip):
    """Two-message deterministic run -> Chrome trace dict."""
    c = chip(variant=Variant.COMPLETE_NOACK)
    recorder = SpanRecorder()
    for router in c.net.routers:
        router.observer = recorder
    for ni in c.net.interfaces:
        ni.observer = recorder
    c.request(0, 5)
    c.run_until_drained()
    c.request(3, 12)
    c.run_until_drained()
    return recorder.chrome_trace()


def test_chrome_trace_matches_golden(chip, monkeypatch, tmp_path):
    monkeypatch.setattr(flit_mod, "_msg_ids", itertools.count())
    trace = _scripted_trace(chip)
    # normalise through JSON exactly as write_chrome_trace does (compact
    # separators, sorted keys); the golden file itself stays indented
    produced = json.loads(json.dumps(trace, separators=(",", ":"),
                                     sort_keys=True))
    if os.environ.get("REPRO_REGOLDEN"):
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w") as handle:
            json.dump(produced, handle, indent=1, sort_keys=True)
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    assert produced == golden


def test_chrome_trace_is_deterministic(chip, monkeypatch):
    monkeypatch.setattr(flit_mod, "_msg_ids", itertools.count())
    first = _scripted_trace(chip)
    monkeypatch.setattr(flit_mod, "_msg_ids", itertools.count())
    second = _scripted_trace(chip)
    assert first == second
