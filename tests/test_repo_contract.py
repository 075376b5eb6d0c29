"""Repository-level contracts: deliverables promised by DESIGN.md exist."""

import pathlib

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_report_entry_has_a_shape_check():
    from repro.harness.render import REPORT
    from tests.test_fidelity import CHECKS

    assert {entry for entry, _label, _check in CHECKS} == set(REPORT)


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


# ----------------------------------------------------------------------
# The docs name what exists: every backticked code identifier in
# README.md, DESIGN.md and docs/*.md is defined somewhere in the code,
# or is one of a few outside names.
# ----------------------------------------------------------------------

#: Code the docs may name.
_CODE_DIRS = ("src", "bench", "tools", "tests")

#: Outside names the docs use: other projects, the standard library's
#: attributes, and one symbol of the shard-window derivation.
_OUTSIDE_NAMES = frozenset({
    "numpy", "certifi", "sys.settrace", "json.dump", "fsync",
    "perf_counter", "time.process_time", "__dict__", "W",
})

_IDENTIFIER = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(\))?"


def _defined_names() -> set:
    """Every name the code defines: modules and packages, classes,
    functions and their parameters, assigned names and attributes,
    keyword arguments, imported names, and identifier-like string and
    bytes constants (setting names, environment variables, magics)."""
    import ast
    import re

    names = set()
    for directory in _CODE_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            names.add(path.stem)
            names.update(parent.name
                         for parent in path.relative_to(ROOT).parents)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, ast.arg):
                    names.add(node.arg)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                    names.add(node.asname or "")
                elif isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store):
                    names.add(node.attr)
                elif isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, (str, bytes)):
                    value = node.value if isinstance(node.value, str) \
                        else node.value.decode("latin-1")
                    if re.fullmatch(_IDENTIFIER, value):
                        names.update(value.split("."))
    return names


def _undefined_doc_names(docs, defined) -> dict:
    """``{identifier: [doc names]}`` of the backticked identifiers in
    ``docs`` (``(name, text)`` pairs) that name nothing: some dotted part
    is neither defined, a builtin, nor a keyword, and the whole is not an
    outside name.  A trailing ``_`` makes the span a prefix of a name.
    Fenced code blocks are examples, not names, and are skipped."""
    import builtins
    import keyword
    import re

    def known(part: str) -> bool:
        if part.endswith("_") and not part.endswith("__"):
            return any(name.startswith(part) for name in defined)
        return part in defined or hasattr(builtins, part) \
            or keyword.iskeyword(part)

    undefined: dict = {}
    for doc, text in docs:
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for span in re.findall(r"`([^`\n]+)`", text):
            if not re.fullmatch(_IDENTIFIER, span) \
                    or span in _OUTSIDE_NAMES:
                continue
            if not all(map(known, span.removesuffix("()").split("."))):
                undefined.setdefault(span, []).append(doc)
    return undefined


def test_docs_name_only_what_the_code_defines():
    docs = [(path.name, path.read_text())
            for path in [ROOT / "README.md", ROOT / "DESIGN.md",
                         *sorted((ROOT / "docs").glob("*.md"))]]
    defined = _defined_names()
    assert _undefined_doc_names(docs, defined) == {}
    # A deleted class planted in a doc is caught (spelled in parts, so
    # this file does not define it).
    planted = "Checkpoint" + "Policy"
    assert _undefined_doc_names(
        [("planted.md", f"Resume through `{planted}`, or `{planted}()`.")],
        defined) == {planted: ["planted.md"], f"{planted}()": ["planted.md"]}


# ----------------------------------------------------------------------
# One way to declare a value class: ``repro._record.record``, which
# generates no code at import.
# ----------------------------------------------------------------------

def _dataclass_sites(tree):
    """(lineno, what) for every use of ``dataclasses.dataclass``: a
    ``dataclass`` decorator, name or import, or a ``.dataclass`` call."""
    import ast

    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "dataclass":
            yield node.lineno, "dataclass"
        elif isinstance(node, ast.Attribute) and node.attr == "dataclass":
            yield node.lineno, ".dataclass"
        elif isinstance(node, ast.alias) and node.name == "dataclass":
            yield node.lineno, "import dataclass"


def test_only_record_calls_dataclass():
    import ast

    probe = ast.parse("from dataclasses import dataclass\n"
                      "@dataclass(frozen=True)\nclass A: pass\n"
                      "@dataclasses.dataclass\nclass B: pass\n")
    assert [what for _line, what in sorted(_dataclass_sites(probe))] == [
        "import dataclass", "dataclass", ".dataclass"]
    offenders = [f"{relative}:{line} {what}"
                 for relative, tree in _repro_sources()
                 if relative != pathlib.Path("_record.py")
                 for line, what in _dataclass_sites(tree)]
    assert not offenders, offenders


# ----------------------------------------------------------------------
# No dead code: every function, class and method defined in src/ is
# named somewhere besides its definition - code, a docstring, a test or
# the Makefile.  Dunders are Python's to call.
# ----------------------------------------------------------------------

#: Where a definition of ``src/`` may be named.
_NAMING_DIRS = ("src", "tests", "bench", "tools", "examples")


def _naming_sources() -> list:
    """``(path, text)`` of every ``.py`` file of :data:`_NAMING_DIRS`,
    and of the Makefile (the only place some definitions are named)."""
    sources = [(path.relative_to(ROOT).as_posix(), path.read_text())
               for directory in _NAMING_DIRS
               for path in sorted((ROOT / directory).rglob("*.py"))]
    return sources + [("Makefile", (ROOT / "Makefile").read_text())]


def _unnamed_definitions(sources) -> list:
    """``path:line name`` of each function, class or method defined under
    ``src/`` in ``sources`` whose name occurs nowhere but in its
    definitions."""
    import ast
    import collections
    import re

    words = collections.Counter()
    defined = []
    for path, text in sources:
        words.update(re.findall(r"\w+", text))
        if path.startswith("src/"):
            defined += [
                (node.name, f"{path}:{node.lineno}")
                for node in ast.walk(ast.parse(text))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))]
    definitions = collections.Counter(name for name, _where in defined)
    return sorted(f"{where} {name}" for name, where in defined
                  if words[name] <= definitions[name])


def test_every_definition_in_src_is_named_somewhere_else():
    sources = _naming_sources()
    assert _unnamed_definitions(sources) == []
    # A planted unused function is caught (its name spelled in parts, so
    # this file does not name it).
    name = "orphan_" + "helper"
    planted = ("src/repro/planted.py", f"def {name}():\n    return 1\n")
    assert _unnamed_definitions(sources + [planted]) == [
        f"src/repro/planted.py:1 {name}"]
