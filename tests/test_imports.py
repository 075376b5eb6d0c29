"""Each entry point imports only the code it runs.

Every case starts a fresh interpreter (``REPRO_*`` scrubbed), runs one
entry point and lists ``sys.modules``: a plain run or a NoC study must
not load the worker fleet, the shard engine, sockets or telemetry, a
warm read of stored results must not load the simulator, and ``import
repro`` (or any of its packages) must load none of its modules.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Never needed by a plain run: fleets, sockets, the shard engine,
#: telemetry, the daemon and the validators.  ``name*`` also matches the
#: package's submodules.
HEAVY = ["repro.proc", "repro.sim.shard", "repro.telemetry*",
         "repro.service*", "repro.validate*", "multiprocessing*", "socket",
         "subprocess", "numpy*"]


#: The simulator: never needed to read a stored result.
SIMULATOR = ["repro.system", "repro.noc.network", "repro.noc.router",
             "repro.noc.interface", "repro.circuits.policy",
             "repro.coherence.l1", "repro.coherence.l2dir", "repro.cpu.core",
             "repro.cpu.trace", "repro.power.energy"]

#: The packages below ``repro`` that are name -> module facades.
PACKAGES = ["repro.sim", "repro.noc", "repro.circuits", "repro.coherence",
            "repro.cpu", "repro.power", "repro.service"]


def _run(code: str, tmp_path) -> "tuple[str, set]":
    """Standard output and ``sys.modules`` after ``code`` ran in a fresh
    interpreter."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=str(tmp_path), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    return out, set(json.loads(last))


def _modules(code: str, tmp_path) -> set:
    """``sys.modules`` after ``code`` ran in a fresh interpreter."""
    return _run(code, tmp_path)[1]


def _present(modules: set, patterns) -> list:
    """The loaded modules that ``patterns`` name."""
    hits = []
    for pattern in patterns:
        name = pattern.rstrip("*")
        star = pattern.endswith("*")
        hits += sorted(m for m in modules
                       if m == name or (star and m.startswith(name + ".")))
    return hits


def test_import_repro_loads_no_submodule(tmp_path):
    modules = _modules("import repro", tmp_path)
    assert [m for m in modules if m.startswith("repro.")] == []


def test_importing_a_package_loads_none_of_its_modules(tmp_path):
    modules = _modules("".join(f"import {p}\n" for p in PACKAGES), tmp_path)
    assert sorted(m for m in modules if m.startswith("repro.")) \
        == sorted(PACKAGES)


def test_a_warm_read_loads_no_simulator(tmp_path):
    """One interpreter fills a store with a tiny cold batch; a second
    reads it back through ``api`` into Table 1 and Fig. 9, renders the
    same text, and never loads the simulator."""
    code = (
        "import os\n"
        "os.environ['REPRO_SCALE'] = '0.02'\n"
        f"os.environ['REPRO_CACHE'] = {str(tmp_path / 'store')!r} + os.sep\n"
        "from repro import api\n"
        "from repro.harness import figures, render, tables\n"
        "programs = ['swaptions']\n"
        "specs = render.report_specs(16, programs, names=['table1', 'fig9'])\n"
        "results = api.results(api.submit(specs, jobs=1))\n"
        "assert len(results) == 8 and not any(r.failed for r in results)\n"
        "print(render.render_table1(tables.table1(programs, 16),\n"
        "                           tables.TABLE1_PAPER))\n"
        "print(render.render_ratio_figure(figures.figure9(programs, 16),\n"
        "                                 'speedup'))\n")
    cold_text, cold = _run(code, tmp_path)
    assert "repro.system" in cold  # the first pass simulated
    warm_text, warm = _run(code, tmp_path)
    assert warm_text == cold_text
    assert _present(warm, SIMULATOR + HEAVY) == []


def test_a_service_client_loads_no_daemon_or_fleet(tmp_path):
    modules = _modules("from repro.service import ServiceClient", tmp_path)
    assert "repro.service.client" in modules
    assert _present(modules, ["repro.service.daemon", "repro.proc",
                              "multiprocessing*", "repro.telemetry*"]
                    + SIMULATOR) == []


def test_traffic_study_loads_no_harness_fleet_or_telemetry(tmp_path):
    modules = _modules(
        "from repro.noc.traffic import RequestReplyTraffic\n"
        "from repro.sim.config import SystemConfig, Variant\n"
        "cfg = SystemConfig(n_cores=16).with_variant(Variant.COMPLETE_NOACK)\n"
        "traffic = RequestReplyTraffic(cfg, 48.0, seed=1)\n"
        "traffic.run(200)\n"
        "traffic.drain()\n"
        "assert traffic.replies_received == traffic.requests_sent > 0\n",
        tmp_path)
    assert _present(modules, HEAVY + ["repro.harness*", "repro.partition"]) \
        == []


def test_plain_api_run_loads_no_fleet_shard_engine_or_telemetry(tmp_path):
    modules = _modules(
        "from repro import api\n"
        "from repro.harness.experiment import RunSpec\n"
        "from repro.sim.config import Variant\n"
        "result = api.run(RunSpec(16, Variant.BASELINE, 'canneal', 1,"
        " 200, 100))\n"
        "assert result.exec_cycles > 0\n",
        tmp_path)
    assert _present(modules, HEAVY + ["repro.harness.parallel"]) == []


def test_serial_cli_run_loads_no_fleet(tmp_path):
    """``--jobs 1`` computes its misses in prewarm-group order without
    the worker fleet."""
    modules = _modules(
        "import os\n"
        "os.environ['REPRO_SCALE'] = '0.02'\n"
        "from repro.harness import __main__ as cli\n"
        "cli.default_workloads = lambda full=None: ['swaptions']\n"
        "assert cli.main(['fig10', '--jobs', '1']) == 0\n",
        tmp_path)
    assert "repro.system" in modules  # it simulated
    assert _present(modules, HEAVY + ["repro.harness.parallel"]) == []


def test_the_monitor_loads_no_validation_table_or_shard_engine(tmp_path):
    """A ``REPRO_CHECK`` run imports the monitor; the table's rows (and
    the engines and fleets they perturb) stay unloaded."""
    modules = _modules("from repro.validate import InvariantMonitor",
                       tmp_path)
    assert "repro.validate.invariants" in modules
    assert _present(modules, [
        "repro.sim.shard", "repro.validate.scenarios", "repro.validate.chaos",
        "repro.validate.conformance", "repro.proc", "repro.service*",
        "multiprocessing*"]) == []


def test_cli_help_loads_no_fleet_telemetry_daemon_or_validators(tmp_path):
    modules = _modules(
        "import runpy, sys\n"
        "sys.argv = ['repro-harness', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro.harness', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code\n",
        tmp_path)
    assert "repro.harness.experiment" in modules  # the CLI module ran
    assert _present(modules, ["multiprocessing*", "repro.telemetry*",
                              "repro.service*", "repro.validate*"]) == []


#: Counts the ``compile`` audit events raised for ``repro`` code: walking
#: out from the event, a ``repro`` frame comes before any import-system
#: frame (a module's own source, or a stdlib module's namedtuples, is
#: compiled under the import system).
_COUNT_COMPILES = """import sys
compiles = []
def _hook(event, args):
    if event != "compile":
        return
    frame = sys._getframe(1)
    while frame is not None:
        name = frame.f_code.co_filename
        if name.startswith("<frozen importlib"):
            return
        if name.startswith({src!r}):
            compiles.append(f"{{name}}:{{frame.f_lineno}}")
            return
        frame = frame.f_back
sys.addaudithook(_hook)
"""


@pytest.mark.parametrize("entry", [
    "from repro import api\nfrom repro.harness import figures, render\n",
    "from repro.noc.traffic import RequestReplyTraffic\n"
    "from repro.sim.config import SystemConfig, Variant\n"
    "cfg = SystemConfig(n_cores=16).with_variant(Variant.COMPLETE_NOACK)\n"
    "RequestReplyTraffic(cfg, 48.0, seed=1).run(200)\n",
    "from repro import api\n"
    "from repro.harness.experiment import RunSpec\n"
    "from repro.sim.config import Variant\n"
    "api.run(RunSpec(16, Variant.BASELINE, 'canneal', 1, 200, 100))\n",
    "from repro.service import ServiceClient\n",
], ids=["warm-read", "noc-study", "api-run", "service-client"])
def test_an_entry_point_compiles_no_source(entry, tmp_path):
    """Value classes are ``record`` s, so no import path ``exec`` s
    generated methods (``dataclass`` compiled 45 sources for a warm
    read's imports and 36 for a NoC study's)."""
    code = (_COUNT_COMPILES.format(src=os.path.join(SRC, "repro"))
            + entry + "print(compiles)\n")
    out, _ = _run(code, tmp_path)
    assert out == "[]"


# ----------------------------------------------------------------------
# The facades still serve every public name.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("package", ["repro", "repro.harness"] + PACKAGES)
def test_every_public_name_resolves(package):
    module = __import__(package, fromlist=["__all__"])
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_star_import_and_version(tmp_path):
    modules = _modules(
        "from repro import *\n"
        "import repro\n"
        "assert repro.__version__ == '1.0.0'\n"
        "missing = [n for n in repro.__all__ if n not in globals()]\n"
        "assert not missing, missing\n",
        tmp_path)
    assert "repro.api" in modules


def test_resolve_jobs_has_one_home():
    from repro import config
    from repro.harness import parallel

    assert parallel.resolve_jobs is config.resolve_jobs
    assert repro.harness.resolve_jobs is config.resolve_jobs


def test_observed_run_still_loads_telemetry_and_exports(tmp_path):
    from repro import api
    from repro.harness import experiment
    from repro.harness.experiment import RunSpec
    from repro.sim.config import Variant
    from repro.telemetry import TelemetryConfig

    config = TelemetryConfig(profile=False, interval=200,
                             out_dir=str(tmp_path / "telemetry"),
                             trace_dir=str(tmp_path / "trace"))
    spec = RunSpec(16, Variant.COMPLETE_NOACK, "canneal", 1, 200, 100,
                   telemetry=config)
    api.run(spec)
    paths = experiment.last_telemetry()["paths"]
    assert {"metrics_csv", "trace", "breakdown"} <= set(paths)
    assert all(os.path.exists(path) for path in paths.values())
