"""Repository-level contracts: deliverables promised by DESIGN.md exist."""

import pathlib

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_experiment_has_a_bench():
    benches = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
    assert "test_table1_message_mix.py" in benches
    assert "test_table5_reservation_ordinals.py" in benches
    assert "test_table6_router_area.py" in benches
    for fig in (6, 7, 8, 9, 10):
        assert any(f"fig{fig}" in b for b in benches), f"figure {fig} bench"
    assert any("ablation" in b for b in benches)


def test_examples_present_and_importable_as_scripts():
    examples = {p.name for p in (ROOT / "examples").glob("*.py")}
    assert "quickstart.py" in examples
    assert len(examples) >= 3
    import ast

    for path in (ROOT / "examples").glob("*.py"):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
        names = {node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
        assert "main" in names, f"{path.name} lacks a main()"


def test_documentation_files_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        path = ROOT / name
        assert path.exists() and path.stat().st_size > 1000, name
    docs = {p.name for p in (ROOT / "docs").glob("*.md")}
    assert {"architecture.md", "protocol.md", "workloads.md"} <= docs


def test_public_api_surface():
    expected = {
        "SystemConfig", "Variant", "build_system", "workload_by_name",
        "CmpSystem", "compare_variants", "build_partitioned_system",
        "outcome_fractions", "ALL_WORKLOADS",
    }
    assert expected <= set(repro.__all__)
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_all_paper_variants_exposed():
    from repro.sim.config import Variant

    names = {v.value for v in Variant}
    # the paper's section-5 configurations
    for required in ("Baseline", "Fragmented", "Complete", "Complete_NoAck",
                     "Reuse_NoAck", "Timed_NoAck", "SlackDelay1_NoAck",
                     "Postponed1_NoAck", "Ideal"):
        assert required in names


# ----------------------------------------------------------------------
# One process supervisor: src/ forks, detects parent death and escalates
# terminate -> kill only in repro/proc.py (repro/validate/ is fault
# injection, which kills on purpose).
# ----------------------------------------------------------------------

def _repro_sources():
    """(path relative to the package, parsed module) for all of src/repro."""
    import ast

    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root), ast.parse(
            path.read_text(), filename=str(path))


def _supervision_sites(tree):
    """(lineno, what) for executor pools, ``.Process(...)``,
    ``os.getppid()`` and argument-less ``.terminate()`` / ``.kill()``."""
    import ast

    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.alias, ast.Attribute)):
            name = getattr(node, "id", None) or getattr(node, "name", None) \
                or getattr(node, "attr", None)
            if name in ("ProcessPoolExecutor", "BrokenProcessPool"):
                yield getattr(node, "lineno", 0), name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            bare = not node.args and not node.keywords
            if attr in ("Process", "getppid") \
                    or (attr in ("terminate", "kill") and bare):
                yield node.lineno, f".{attr}()"


def test_only_repro_proc_supervises_processes():
    import ast

    probe = ast.parse(
        "from concurrent.futures import ProcessPoolExecutor\n"
        "p = ctx.Process(target=f)\n"
        "if os.getppid() != parent: p.terminate(); p.kill()\n"
        "os.kill(pid, signal.SIGKILL)\n"  # a signal to a pid, not a reap
    )
    assert [what for _line, what in _supervision_sites(probe)] == [
        "ProcessPoolExecutor", ".Process()", ".getppid()", ".terminate()",
        ".kill()"]
    offenders = []
    for relative, tree in _repro_sources():
        if relative.parts[0] == "validate":
            continue
        sites = list(_supervision_sites(tree))
        if relative.name == "proc.py" and len(relative.parts) == 1:
            assert {what for _line, what in sites} == {
                ".Process()", ".getppid()", ".terminate()", ".kill()"}
            continue
        offenders += [f"{relative}:{line} {what}" for line, what in sites]
    assert not offenders, offenders


# ----------------------------------------------------------------------
# One clocked protocol: the kernel calls ``tick`` and, where a component
# has one, ``next_wake`` - no fused third entry point, no hand-inlined
# ``*_fast`` twin of a hook.
# ----------------------------------------------------------------------

def test_components_speak_one_clocked_protocol():
    import ast

    offenders = []
    classes = {}  # class name -> (where, own method names, base names)
    for relative, tree in _repro_sources():
        for node in ast.walk(tree):
            where = f"{relative}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "tick_wake" or node.name.endswith("_fast"):
                    offenders.append(f"{where} def {node.name}")
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = (
                    where,
                    {item.name for item in node.body
                     if isinstance(item, ast.FunctionDef)},
                    [base.id for base in node.bases
                     if isinstance(base, ast.Name)],
                )

    def has_tick(name):
        _where, methods, bases = classes.get(name, ("", (), ()))
        return "tick" in methods or any(has_tick(base) for base in bases)

    assert has_tick("RouterCore") and not has_tick("CircuitPolicy")
    offenders += [f"{where} class {name}: next_wake without tick"
                  for name, (where, methods, _bases) in classes.items()
                  if "next_wake" in methods and not has_tick(name)]
    assert not offenders, offenders


def test_routers_are_one_kernel_component():
    """Every router and network interface of a network sits behind one
    kernel slot, the router core: a 4x4 request-reply driver registers
    itself and the core, and neither ``Router`` nor ``NetworkInterface``
    has a sleep decision of its own."""
    import ast

    from repro.noc.router import RouterCore
    from repro.noc.traffic import RequestReplyTraffic
    from repro.sim.config import SystemConfig

    traffic = RequestReplyTraffic(SystemConfig(n_cores=16), 4.0)
    kinds = [type(slot.component) for slot in traffic.sim._slots]
    assert len(kinds) == 1 + 1
    assert kinds.count(RouterCore) == 1
    for module, name, banned in (("router", "Router", {"tick", "next_wake"}),
                                 ("interface", "NetworkInterface",
                                  {"next_wake"})):
        source = pathlib.Path(repro.__file__).parent / "noc" / f"{module}.py"
        cls = next(node for node in ast.parse(source.read_text()).body
                   if isinstance(node, ast.ClassDef) and node.name == name)
        methods = {item.name for item in cls.body
                   if isinstance(item, ast.FunctionDef)}
        assert not methods & banned, name


# ----------------------------------------------------------------------
# One router pipeline, one kernel mode: no second router / NI / arbiter
# implementation, no switch between pipelines, no kernel mode that ticks
# every component every cycle.  The committed conformance goldens are
# what such a twin used to be compared against.
# ----------------------------------------------------------------------

#: The retired switch and kernel-mode names, spelled in halves so that a
#: grep of the tree for them stays empty.
_SWITCH, _MODE = "fast" "path", "always" "_tick"
_RETIRED_NAMES = frozenset({_SWITCH, _MODE, "set_" + _MODE})


def _second_implementation_sites(tree):
    """(lineno, what) for ``Reference*`` classes and any name, attribute,
    parameter, keyword, import or string spelling a retired name."""
    import ast

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name.startswith("Reference"):
            yield node.lineno, f"class {node.name}"
        spelled = [getattr(node, field, None)
                   for field in ("id", "attr", "arg", "name", "asname")]
        if isinstance(node, ast.Constant):
            spelled.append(node.value)
        for name in spelled:
            if isinstance(name, str) and name in _RETIRED_NAMES:
                yield getattr(node, "lineno", 0), name


def test_one_router_pipeline_and_one_kernel_mode():
    import ast

    probe = ast.parse(
        "class ReferenceTwin(Router): pass\n"
        f"if config.noc.{_SWITCH}: sim.set_{_MODE}(True)\n"
        f"run(cell, {_MODE!r})\n")
    assert sorted(what for _line, what in
                  _second_implementation_sites(probe)) == sorted(
        ["class ReferenceTwin", *_RETIRED_NAMES])
    offenders = [f"{relative}:{line} {what}"
                 for relative, tree in _repro_sources()
                 for line, what in _second_implementation_sites(tree)]
    assert not offenders, offenders


# ----------------------------------------------------------------------
# One conformance experiment: "run a configuration two ways and compare
# what it measured" goes through repro.validate.conformance (the
# ``pinned`` fixture, ``run`` / ``diff``), not through a per-file copy.
# ----------------------------------------------------------------------

def test_only_the_conformance_matrix_compares_runs():
    import ast

    def takes_a_snapshot(node):
        return any(isinstance(sub, ast.Call)
                   and isinstance(sub.func, ast.Attribute)
                   and sub.func.attr == "snapshot" for sub in ast.walk(node))

    offenders = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name == "test_conformance.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.FunctionDef) \
                    and node.name in ("traffic_run", "_reference"):
                offenders.append(f"{where} def {node.name}")
            elif isinstance(node, ast.Compare) and takes_a_snapshot(node.left) \
                    and any(map(takes_a_snapshot, node.comparators)):
                offenders.append(f"{where} compares two Stats.snapshot()s")
    assert not offenders, offenders


# ----------------------------------------------------------------------
# One circuit store: circuit tables and ideal-mode waits live in the
# circuit policy under the router core's calendar keys, not on the
# input units, and the NIs' hot counters in the router core's batcher.
# ----------------------------------------------------------------------

_UNIT_STATE = frozenset({"circuit_table", "wait_queue"})
_HOOK_FLAGS = frozenset({"handles_arrivals", "handles_tails"})


def _second_store_sites(tree, interface):
    """(lineno, what) for a ``CircuitTable`` class, a ``circuit_table`` /
    ``wait_queue`` attribute or slot name, a hook flag and - where
    ``interface`` (``noc/interface.py``) - an ``add_flusher`` call."""
    import ast

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "CircuitTable":
            yield node.lineno, "class CircuitTable"
        elif isinstance(node, ast.Attribute) \
                and node.attr in _UNIT_STATE | _HOOK_FLAGS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in _HOOK_FLAGS:
            yield node.lineno, node.id
        elif isinstance(node, ast.Constant) and node.value in _UNIT_STATE:
            yield node.lineno, node.value
        elif interface and isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "add_flusher":
            yield node.lineno, "add_flusher"


def test_circuit_state_lives_in_one_store():
    import ast

    probe = ast.parse(
        "class CircuitTable: pass\n"
        "unit.circuit_table = unit.wait_queue = None\n"
        "__slots__ = ('wait_queue',)\n"
        "handles_arrivals = policy.handles_tails\n"
        "stats.add_flusher(self._flush_counters)\n")
    assert sorted(what for _line, what in
                  _second_store_sites(probe, interface=True)) == sorted([
        "class CircuitTable", "circuit_table", "wait_queue", "wait_queue",
        "handles_arrivals", "handles_tails", "add_flusher"])
    offenders = [
        f"{relative}:{line} {what}"
        for relative, tree in _repro_sources()
        for line, what in _second_store_sites(
            tree, interface=relative.as_posix() == "noc/interface.py")]
    assert not offenders, offenders
