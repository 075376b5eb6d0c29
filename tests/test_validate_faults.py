"""The model-fault rows of the validation table: every fault class is
caught by its own checker."""

import json

import pytest

from repro.validate import FaultKind, scenarios


def _run(kind, **table):
    """The outcome of ``kind``'s row of ``scenarios.table(**table)``."""
    [row] = [row for row in scenarios.table(**table)
             if row.perturbation is kind]
    [outcome] = scenarios.run_scenarios([row])
    return outcome


@pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
def test_fault_detected_by_expected_checker(kind, tmp_path):
    outcome = _run(kind, seed=7, crash_dir=str(tmp_path))
    assert outcome.ok, outcome.line()
    assert outcome.observed.startswith("fires ")

    # a crash report was saved and records what was broken
    [path] = tmp_path.glob(f"fault-{kind.value}-seed7*.json")
    assert str(path) in outcome.detail
    with open(path) as fh:
        data = json.load(fh)
    assert data["fault"]["fault"] == kind.value
    assert data["fault"]["cycle"] >= scenarios.INJECT_AT


def test_injection_is_deterministic():
    first = _run(FaultKind.LEAK_CREDIT, seed=11)
    second = _run(FaultKind.LEAK_CREDIT, seed=11)
    assert (first.observed, first.detail) == (second.observed, second.detail)


def test_detection_is_seed_robust():
    for seed in (11, 12):
        outcome = _run(FaultKind.LEAK_CREDIT, seed=seed)
        assert outcome.ok, outcome.line()
