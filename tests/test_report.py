"""The report: one list of entries (``render.REPORT``) drives the CLI,
``tools/run_reproduction.py``, ``FIDELITY.json`` and EXPERIMENTS.md.

Its text is pinned: ``all`` at 16 and 64 cores and the reproduction
tool print the committed golden text.

The simulator is stubbed out (``experiment._run_local``) by one that
derives every counter, latency sample and cycle count from the run's
store key, with non-zero message counts, reply outcomes, reservation
ordinals and latency histograms, so every column of every table and
figure renders a real number in a second.  The golden files were written
before the report became one list of entries; regenerate them only when
the report's text is meant to change, with ``REPRO_REGOLDEN=1``.
"""

import importlib.util
import json
import os
import random
import re
import zlib

import pytest

from repro.circuits.outcomes import OUTCOME_ORDER
from repro.coherence.messages import REPLY_KINDS, REQUEST_KINDS
from repro.harness import experiment, figures, render
from repro.harness.__main__ import main
from repro.sim.stats import Stats

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "report")
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TOOL = os.path.join(ROOT, "tools", "run_reproduction.py")


def fake_run(spec, key, config):
    """``(stats, start, finish)`` of a run, made up from its key alone."""
    rng = random.Random(zlib.crc32(key.encode()))
    stats = Stats()
    for kind in sorted(REQUEST_KINDS | REPLY_KINDS):
        stats.bump(f"msg.count.{kind}", rng.randrange(50, 5000))
    for outcome in OUTCOME_ORDER:
        stats.bump(f"circuit.outcome.{outcome.value}", rng.randrange(1, 900))
    for ordinal in range(1, 6):
        stats.bump(f"circuit.reservation_ordinal.{ordinal}",
                   rng.randrange(1, 600 // ordinal))
    stats.bump("circuit.reservation_failed", rng.randrange(1, 200))
    stats.bump("noc.link_flits", rng.randrange(10_000, 90_000))
    for cls in ("req", "crep", "norep"):
        for _ in range(40):
            stats.record(f"lat.net.{cls}", rng.randrange(4, 60))
            stats.observe(f"lat.queue.{cls}", rng.randrange(0, 5))
    return stats, 0, rng.randrange(20_000, 40_000)


@pytest.fixture
def fake_simulator(monkeypatch):
    for name in ("REPRO_CACHE", "REPRO_JOBS", "REPRO_SERVICE", "REPRO_FULL",
                 "REPRO_TOPOLOGY", "REPRO_CHECK", "REPRO_FAILFAST"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    monkeypatch.setattr(experiment, "_run_local", fake_run)
    with experiment.fresh_memo():
        yield


def _matches_golden(name: str, text: str) -> None:
    path = os.path.join(GOLDEN, name)
    if os.environ.get("REPRO_REGOLDEN"):
        os.makedirs(GOLDEN, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text)
    with open(path) as handle:
        assert text == handle.read(), f"{name} differs from its golden text"


@pytest.mark.parametrize("cores", [16, 64])
def test_all_prints_the_golden_report(fake_simulator, capsys, cores):
    assert main(["all", "--cores", str(cores)]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    _matches_golden(f"all{cores}.txt", out)


def _run_tool(output) -> None:
    spec = importlib.util.spec_from_file_location("run_reproduction", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main([str(output)]) == 0


def test_the_reproduction_tool_writes_the_golden_report(fake_simulator,
                                                        tmp_path, capsys):
    _run_tool(tmp_path / "report.txt")
    text = (tmp_path / "report.txt").read_text()
    assert "nan" not in text
    # the elapsed time is the one part of the report that is not data
    text = re.sub(r"# total \d+s", "# total Ns", text)
    _matches_golden("reproduction.txt", text)
    assert capsys.readouterr().out.count("Table 6") == 1


def test_fidelity_json_holds_every_number_of_the_report(fake_simulator,
                                                        tmp_path):
    """One row per number the tool rendered, the paper's value beside
    the first column where the paper has one, and the run's scale,
    quanta, seed, workloads and commit."""
    _run_tool(tmp_path / "report.txt")
    fidelity = json.loads((tmp_path / "FIDELITY.json").read_text())
    assert fidelity["scale"] == 0.5
    assert (fidelity["measure_instructions"],
            fidelity["warmup_instructions"]) == (1500, 400)
    assert fidelity["seed"] == 1 and "commit" in fidelity  # None off git
    assert len(fidelity["all_workloads"]) == 22
    rows = fidelity["rows"]
    assert {row["entry"] for row in rows} == set(render.REPORT)
    assert all(set(row) == {"entry", "cores", "row", "column", "paper",
                            "measured"} for row in rows)
    count = {}
    for row in rows:
        count[row["entry"], row["cores"]] = (
            count.get((row["entry"], row["cores"]), 0) + 1)
    assert count == {("table1", 16): 8, ("table1", 64): 8,
                     ("table5", 16): 6, ("table5", 64): 6,
                     ("table6", 16): 3, ("table6", 64): 3,
                     ("fig6", 16): 13 * 6, ("fig6", 64): 13 * 6,
                     ("fig7", 16): 9 * 9, ("fig7", 64): 9 * 9,
                     ("fig8", 16): 7 * 2, ("fig8", 64): 7 * 2,
                     ("fig9", 16): 7 * 2, ("fig9", 64): 7 * 2,
                     ("fig10", 64): 22}
    paper = {(row["entry"], row["cores"], row["row"], row["column"]):
             row["paper"] for row in rows if row["paper"] is not None}
    assert paper[("table1", 16, "requests", "percent")] == 47.0
    assert paper[("table6", 64, "Complete Timed", "percent")] == 1.09
    assert paper[("fig9", 64, "SlackDelay1_NoAck", "speedup")] == 1.06
    assert paper[("fig8", 16, "Complete_NoAck", "energy")] == 0.848
    assert len(paper) == 2 * 7 + 2 * 6 + 6 + 2 + 4
    measured = {(row["entry"], row["cores"], row["row"], row["column"]):
                row["measured"] for row in rows}
    text = (tmp_path / "report.txt").read_text()
    inv_ack = measured["table1", 64, "L1_INV_ACK", "percent"]
    assert f"L1_INV_ACK     {inv_ack:.1f}%" in text
    x264 = measured["fig10", 64, "x264", "speedup"]
    assert f"x264            {x264:.3f}" in text


@pytest.mark.parametrize("entry", list(render.REPORT.values()),
                         ids=list(render.REPORT))
def test_an_entry_simulates_exactly_its_variants(fake_simulator,
                                                 monkeypatch, entry):
    """The list's variants are what the entry's compute asks for, so the
    prefetch batch (``report_specs``) is every run the rendering reads."""
    asked = []
    cells = figures.cells

    def recording(n_cores, variants, *args, **kwargs):
        asked.extend(variants)
        return cells(n_cores, variants, *args, **kwargs)

    monkeypatch.setattr(figures, "cells", recording)
    monkeypatch.setattr("repro.harness.tables.cells", recording)
    entry.compute(["fft", "canneal"], 16, 1)
    assert set(asked) == set(entry.variants)
    assert len(render.report_specs(16, ["fft", "canneal"], 1,
                                   [entry.name])) == 2 * len(entry.variants)


def _markdown_and_fidelity():
    with open(os.path.join(ROOT, "EXPERIMENTS.md")) as handle:
        markdown = handle.read()
    with open(os.path.join(ROOT, "FIDELITY.json")) as handle:
        return markdown, json.load(handle)


def test_experiments_md_tables_are_rendered_from_fidelity_json():
    """Every generated block of EXPERIMENTS.md is what the committed
    ``FIDELITY.json`` renders to (``make reproduce`` refreshes both), and
    every entry of the report has one."""
    markdown, fidelity = _markdown_and_fidelity()
    assert render.fill_blocks(markdown, fidelity) == markdown
    blocks = re.findall(r"<!-- fidelity (\w+)", markdown)
    assert set(blocks) == set(render.REPORT) | {"run"}
    assert fidelity["scale"] == 1.0


def test_an_edited_number_in_a_generated_block_is_caught():
    markdown, fidelity = _markdown_and_fidelity()
    start = markdown.index("<!-- fidelity table1 64 -->")
    number = re.compile(r"\| (\d+\.\d+) \|").search(markdown, start)
    edited = (markdown[:number.start(1)] + number.group(1) + "1"
              + markdown[number.end(1):])
    assert render.fill_blocks(edited, fidelity) == markdown != edited
