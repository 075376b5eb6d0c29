"""The report: the one ordered list of the paper's tables and figures
(:data:`REPORT`), their plain-text rendering, and the Markdown tables
that EXPERIMENTS.md generates from ``FIDELITY.json``."""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro._record import record
from repro.circuits.outcomes import OUTCOME_ORDER
from repro.harness import figures, tables
from repro.harness.experiment import RunSpec
from repro.sim.config import Variant


def format_table(headers: List[str], rows: Iterable[List[str]]) -> str:
    """Monospace table with column alignment."""
    rows = [list(map(str, row)) for row in rows]
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    def line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def render_table1(measured: Mapping[str, float],
                  paper: Mapping[str, float]) -> str:
    return format_table(["message class", "measured", "paper"], [
        [key, f"{value:.1f}%", f"{paper[key]:.1f}%" if key in paper else "-"]
        for key, value in measured.items()])


def render_table5(measured: Mapping[object, float],
                  paper: Mapping[object, float]) -> str:
    return format_table(["reservation", "measured", "paper"], [
        [f"{key}th circuit" if isinstance(key, int) else key,
         f"{measured.get(key, 0.0):.1f}%", f"{paper.get(key, 0.0):.1f}%"]
        for key in (1, 2, 3, 4, 5, "failed")])


def render_table6(measured: Mapping[Tuple[str, int], float],
                  paper: Mapping[Tuple[str, int], float]) -> str:
    return format_table(["version", "chip", "measured", "paper"], [
        [label, f"{cores} cores", f"{value:+.2f}%",
         f"{paper.get((label, cores), float('nan')):+.2f}%"]
        for (label, cores), value in measured.items()])


def render_figure6(data: Mapping[str, Mapping[str, float]]) -> str:
    return format_table(["variant"] + [o.value for o in OUTCOME_ORDER], [
        [variant] + [f"{100 * outcomes.get(o.value, 0.0):.1f}%"
                     for o in OUTCOME_ORDER]
        for variant, outcomes in data.items()])


def render_figure7(
    data: Mapping[str, Mapping[str, Tuple[float, float, float]]]
) -> str:
    """Per class (network + queueing) latency, and the circuit replies'
    p95."""
    return format_table(
        ["variant", "req net+q", "circuit-rep net+q", "no-circuit net+q",
         "crep p95"],
        [[variant] + [f"{classes[cls][0]:.1f}+{classes[cls][1]:.1f}"
                      for cls in ("req", "crep", "norep")]
         + [f"{classes['crep'][2]:.1f}"]
         for variant, classes in data.items()])


def render_ratio_figure(data: Mapping[str, Tuple[float, float]],
                        value_label: str) -> str:
    return format_table(["variant", value_label, "stderr"], [
        [variant, f"{mean:.3f}", f"±{err:.3f}"]
        for variant, (mean, err) in data.items()])


def render_figure10(data: Mapping[str, float]) -> str:
    return format_table(["application", "speedup", "gain"], [
        [workload, f"{speedup:.3f}", f"{100 * (speedup - 1):+.1f}%"]
        for workload, speedup in sorted(data.items(), key=lambda kv: -kv[1])])


def render_figure_topology(
    data: Mapping[str, Mapping[str, Tuple[float, float]]]
) -> str:
    return format_table(
        ["topology", "speedup", "stderr", "circuit hit rate",
         "crep latency (cycles)"],
        [[topology, f"{metrics['speedup'][0]:.3f}",
          f"±{metrics['speedup'][1]:.3f}",
          f"{100 * metrics['circuit_success'][0]:.1f}%",
          f"{metrics['reply_latency'][0]:.1f}"]
         for topology, metrics in data.items()])


@record(frozen=True)
class Entry:
    """One table or figure of the report.

    ``compute(workloads, n_cores, seed)`` assembles its data from the runs
    of ``variants``, and ``render(data, paper)`` prints that beside
    ``paper(n_cores)`` (if the paper gives numbers): the paper's values
    keyed like the data's rows, in the unit of ``columns[0]``.
    ``columns`` names the numbers of a row that is a number or a tuple; a
    row that maps names to numbers names its own (``""`` then).  The
    reproduction renders the entry at each of ``chips`` (none: it has no
    chip size), over every workload if ``full``.
    """

    name: str
    title: str
    variants: Tuple[Variant, ...]
    compute: Callable
    render: Callable
    columns: Tuple[str, ...]
    paper: Optional[Callable] = None
    chips: Tuple[int, ...] = (16, 64)
    full: bool = False


#: The report, in the order ``all`` prints it; keyed by CLI command.
REPORT: Dict[str, Entry] = {entry.name: entry for entry in (
    Entry("table1", "Table 1 - message mix ({cores} cores, baseline)",
          (Variant.BASELINE,), tables.table1, render_table1, ("percent",),
          paper=lambda n_cores: tables.TABLE1_PAPER),
    Entry("table5", "Table 5 - circuit reservation ordinals ({cores} cores)",
          (Variant.COMPLETE_NOACK,), tables.table5, render_table5,
          ("percent",), paper=lambda n_cores: tables.TABLE5_PAPER),
    Entry("table6", "Table 6 - router area savings", (),
          lambda workloads, n_cores, seed: tables.table6(), render_table6,
          ("percent",), paper=lambda n_cores: tables.TABLE6_PAPER,
          chips=()),
    Entry("fig6", "Figure 6 - reply outcomes ({cores} cores)",
          tuple(figures.FIG6_VARIANTS), figures.figure6,
          lambda data, paper: render_figure6(data), ("",)),
    Entry("fig7", "Figure 7 - message latency ({cores} cores)",
          tuple(figures.FIG7_VARIANTS), figures.figure7,
          lambda data, paper: render_figure7(data), ("net", "queue", "p95")),
    Entry("fig8", "Figure 8 - normalised network energy ({cores} cores)",
          (Variant.BASELINE, *figures.FIG8_VARIANTS), figures.figure8,
          lambda data, paper: render_ratio_figure(data, "energy vs baseline"),
          ("energy", "stderr"),  # the paper: -15.2 % and -20.8 %
          paper=lambda n_cores: {Variant.COMPLETE_NOACK.value:
                                 {16: 0.848, 64: 0.792}.get(n_cores)}),
    Entry("fig9", "Figure 9 - speedup ({cores} cores)",
          (Variant.BASELINE, *figures.FIG9_VARIANTS), figures.figure9,
          lambda data, paper: render_ratio_figure(data, "speedup"),
          ("speedup", "stderr"), paper=lambda n_cores: {
              variant.value: 1 + percent / 100
              for (variant, cores), percent in figures.PAPER_SPEEDUP.items()
              if cores == n_cores}),
    Entry("fig10", "Figure 10 - per-application speedup ({cores} cores, "
          "SlackDelay1 + NoAck)",
          (Variant.BASELINE, Variant.SLACKDELAY1_NOACK), figures.figure10,
          lambda data, paper: render_figure10(data), ("speedup",),
          chips=(64,), full=True),
)}


def report_specs(n_cores: int, workloads: List[str], seed: int = 1,
                 names: Optional[Iterable[str]] = None) -> List[RunSpec]:
    """Every spec the named entries (default: all of them) simulate on
    ``n_cores``, variant-major, each variant once."""
    names = REPORT if names is None else names
    variants = dict.fromkeys(variant for name in names
                             for variant in REPORT[name].variants)
    return [RunSpec(n_cores, variant, workload, seed)
            for variant in variants for workload in workloads]


def section(entry: Entry, workloads: List[str], n_cores: Optional[int],
            seed: int = 1) -> Tuple[str, List[dict]]:
    """``(text, cells)`` of ``entry`` on ``n_cores``: its title and
    rendered table, and one ``FIDELITY.json`` row per number."""
    data = entry.compute(workloads, n_cores, seed)
    paper = entry.paper(n_cores) if entry.paper else {}
    cells = []
    for key, value in data.items():
        # Table 6's rows are keyed (version, chip size)
        row, cores = key if isinstance(key, tuple) else (key, n_cores)
        cells += [{"entry": entry.name, "cores": cores, "row": str(row),
                   "column": column, "paper": paper.get(key)
                   if column == entry.columns[0] else None,
                   "measured": measured}
                  for column, measured in _leaves(value, entry.columns)]
    return (entry.title.format(cores=n_cores) + "\n"
            + entry.render(data, paper)), cells


def _leaves(value, columns) -> list:
    """``(column, number)`` of one row: a tuple's (or a lone number's)
    named by ``columns``, a mapping's by its keys."""
    if isinstance(value, Mapping):
        return [(f"{key} {column}".strip(), number)
                for key, inner in value.items()
                for column, number in _leaves(inner, columns)]
    return list(zip(columns, value if isinstance(value, tuple) else [value]))


def fidelity_table(fidelity: dict, name: str, cores: int) -> str:
    """Entry ``name``'s ``FIDELITY.json`` rows on ``cores`` as a Markdown
    table: a line per row, the paper's value (if it has any) then each
    measured column."""
    table: Dict[str, dict] = {}
    for cell in fidelity["rows"]:
        if (cell["entry"], cell["cores"]) == (name, cores):
            line = table.setdefault(cell["row"], {})
            line[cell["column"]] = cell["measured"]
            if cell["paper"] is not None:
                line["paper"] = cell["paper"]
    columns = sorted(dict.fromkeys(column for line in table.values()
                                   for column in line),
                     key=lambda column: column != "paper")  # paper first
    rows = [[row] + ["–" if line.get(column) is None
                     else f"{line[column]:.4g}" for column in columns]
            for row, line in table.items()]
    return "\n".join("| " + " | ".join(cells) + " |" for cells in
                     [[""] + columns, ["---"] * (len(columns) + 1)] + rows)


_BLOCK = re.compile(r"(<!-- fidelity (\w+)(?: (\d+))? -->\n).*?"
                    r"(<!-- /fidelity -->)", re.S)


def fill_blocks(markdown: str, fidelity: dict) -> str:
    """``markdown`` with every ``<!-- fidelity NAME [CORES] -->`` block
    re-rendered from ``fidelity``: NAME ``run`` is the line naming the
    run, any other an entry's :func:`fidelity_table`."""
    def block(match) -> str:
        name, cores = match.group(2), match.group(3)
        if name == "run":
            body = ("Generated by `make reproduce` from `FIDELITY.json`: "
                    "`REPRO_SCALE={scale}` ({measure_instructions} / "
                    "{warmup_instructions} measured / warm-up instructions "
                    "per core), seed {seed}, commit `{commit}`."
                    ).format(**fidelity)
        else:
            body = fidelity_table(fidelity, name, int(cores))
        return f"{match.group(1)}{body}\n{match.group(4)}"
    return _BLOCK.sub(block, markdown)


def refresh_experiments(markdown_path: str = "EXPERIMENTS.md",
                        fidelity_path: str = "FIDELITY.json") -> None:
    """Re-render the generated blocks of ``markdown_path`` in place."""
    with open(fidelity_path) as handle:
        fidelity = json.load(handle)
    with open(markdown_path) as handle:
        markdown = fill_blocks(handle.read(), fidelity)
    with open(markdown_path, "w") as handle:
        handle.write(markdown)
