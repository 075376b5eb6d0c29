"""The validation table: one row per fault class, clean cell, topology
and process fault, each failing without its perturbation."""

from dataclasses import replace
from functools import partial

import pytest

from repro.validate import FaultKind, scenarios

TABLE = scenarios.table()
PERTURBED = [row for row in TABLE if row.perturbation is not None]


def test_the_table_holds_every_check_once():
    names = [row.name for row in TABLE]
    assert len(names) == len(set(names)) == 24
    assert [row.perturbation for row in TABLE[:7]] == list(FaultKind)
    assert [row.name for row in PERTURBED] == [
        *(kind.value for kind in FaultKind), "worker-sigkill",
        "worker-sigstop", "respawn-exhausted", "sweep-worker-sigkill",
        "service-worker-sigkill"]


@pytest.mark.parametrize("row", PERTURBED, ids=lambda row: row.name)
def test_a_row_fails_without_its_perturbation(row):
    [outcome] = scenarios.run_scenarios([replace(row, perturbation=None)])
    assert not outcome.ok, outcome.line()
    assert not outcome.observed.startswith("raises TypeError"), \
        outcome.line()


@pytest.mark.parametrize(
    "row", [row for row in TABLE if isinstance(row.run, partial)
            and row.run.func is scenarios._clean
            and row.run.args[0].traffic], ids=lambda row: row.name)
def test_a_clean_row_that_saw_no_traffic_fails(row):
    cell = replace(row.run.args[0], length=0)
    [outcome] = scenarios.run_scenarios(
        [replace(row, run=partial(scenarios._clean, cell))])
    assert outcome.observed == "audited no traffic", outcome.line()
