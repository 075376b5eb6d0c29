"""Unified configuration (:mod:`repro.config`): precedence, typed errors,
the ``env`` CLI view, the call sites that resolve through it, and the
rule that nothing else in ``src/`` reads a ``REPRO_*`` variable.
"""

import ast
import pathlib

import pytest

from repro import config
from repro.harness import experiment, parallel
from repro.harness.__main__ import main as harness_main
from repro.sim.config import NocConfig, SystemConfig
from repro.sim.shard import resolve_shard_timeout, resolve_shards, run_sharded


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for entry in config.SETTINGS.values():
        monkeypatch.delenv(entry.env, raising=False)


# ----------------------------------------------------------------------
# Precedence: kwargs > environment > defaults.
# ----------------------------------------------------------------------

def test_resolve_precedence(monkeypatch):
    assert config.resolve("jobs") is None  # registry default
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert config.resolve("jobs") == 4  # environment
    assert config.resolve("jobs", override=2) == 2  # keyword wins
    assert config.resolve("jobs", override=0) == 0  # 0 is a real override


def test_resolve_call_site_default(monkeypatch):
    assert config.resolve("scale") == 1.0
    assert config.resolve("jobs", default=8) == 8
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert config.resolve("jobs", default=8) == 2  # env beats the default


def test_overrides_reports_value_and_source(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    resolved = config.overrides(jobs=3)
    assert resolved["jobs"].value == 3
    assert resolved["jobs"].source == "jobs= (keyword)"
    assert resolved["scale"].value == 0.5
    assert resolved["scale"].source == "REPRO_SCALE"
    assert resolved["full"].value is False
    assert resolved["full"].source == "default"
    assert set(resolved) == set(config.SETTINGS)


def test_overrides_rejects_unknown_setting():
    with pytest.raises(config.ConfigError, match="unknown setting"):
        config.overrides(jobz=3)


def test_empty_env_value_falls_through_to_default(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "")
    assert config.resolve("jobs") is None
    monkeypatch.setenv("REPRO_SCALE", "   ")
    assert config.resolve("scale") == 1.0


# ----------------------------------------------------------------------
# Typed errors naming the offending source.
# ----------------------------------------------------------------------

def test_env_error_names_the_variable(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "banana")
    with pytest.raises(config.ConfigError, match="REPRO_JOBS") as info:
        config.resolve("jobs")
    assert info.value.setting == "jobs"
    assert info.value.source == "REPRO_JOBS"
    assert isinstance(info.value, ValueError)  # legacy excepts still work


def test_keyword_error_names_the_keyword():
    with pytest.raises(config.ConfigError, match=r"scale= \(keyword\)") \
            as info:
        config.resolve("scale", override="zero")
    assert info.value.source == "scale= (keyword)"


@pytest.mark.parametrize("name,env,bad", [
    ("scale", "REPRO_SCALE", "-1"),
    ("scale", "REPRO_SCALE", "inf"),
    ("full", "REPRO_FULL", "maybe"),
    ("check_interval", "REPRO_CHECK_INTERVAL", "0"),
    ("shard_timeout", "REPRO_SHARD_TIMEOUT", "0"),
    ("topology", "REPRO_TOPOLOGY", "ring"),
    ("service_workers", "REPRO_SERVICE_WORKERS", "lots"),
])
def test_constraints_enforced_per_setting(monkeypatch, name, env, bad):
    monkeypatch.setenv(env, bad)
    with pytest.raises(config.ConfigError, match=env):
        config.resolve(name)


def _sharded(**kwargs):
    # malformed values are rejected before any worker is spawned
    return run_sharded(SystemConfig(n_cores=16), "canneal", 10, 10,
                       n_shards=2, **kwargs)


def _default_shards():
    return resolve_shards(SystemConfig(n_cores=16))


@pytest.mark.parametrize("env,bad,entry_point", [
    ("REPRO_SHARDS", "x", _default_shards),
    ("REPRO_SHARDS", "0", _default_shards),
    # structural: 9 row bands on a 4x4 router grid
    ("REPRO_SHARDS", "9", _default_shards),
    ("REPRO_SHARD_TIMEOUT", "soon", resolve_shard_timeout),
    ("REPRO_SHARD_TIMEOUT", "-1", _sharded),
    ("REPRO_SHARD_RESPAWNS", "-1", _sharded),
    ("REPRO_SHARD_RESPAWNS", "many", _sharded),
    ("REPRO_CHECK", "maybe", _sharded),
    ("REPRO_TOPOLOGY", "ring", lambda: SystemConfig(n_cores=16)),
    # structural: 32 cores do not tile a cmesh
    ("REPRO_TOPOLOGY", "cmesh", lambda: SystemConfig(n_cores=32)),
], ids=lambda value: value if isinstance(value, str) else "")
def test_bad_env_is_typed_at_entry_point(monkeypatch, env, bad, entry_point):
    """Malformed values driven through the real entry points, not just
    ``config.resolve``: one error type everywhere."""
    monkeypatch.setenv(env, bad)
    with pytest.raises(config.ConfigError):
        entry_point()


@pytest.mark.parametrize("entry_point", [
    lambda: _sharded(timeout=0),
    lambda: _sharded(respawn_limit=-1),
    lambda: run_sharded(SystemConfig(n_cores=16), "canneal", 10, 10,
                        n_shards=9),
    lambda: SystemConfig(n_cores=16, noc=NocConfig(topology="ring")),
    lambda: SystemConfig(n_cores=17),
], ids=["timeout", "respawn_limit", "n_shards", "noc.topology",
        "n_cores"])
def test_bad_kwarg_or_field_is_typed(entry_point):
    with pytest.raises(config.ConfigError):
        entry_point()


def test_config_fields_beat_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "4")
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "7")
    monkeypatch.setenv("REPRO_TOPOLOGY", "torus")
    assert resolve_shards(SystemConfig(n_cores=16)) == 4
    explicit = SystemConfig(n_cores=16, noc=NocConfig(topology="mesh"))
    assert resolve_shards(explicit, override=2) == 2
    assert resolve_shard_timeout() == 7.0
    assert resolve_shard_timeout(override=3.0) == 3.0
    assert explicit.noc.topology == "mesh"
    assert SystemConfig(n_cores=16).noc.topology == "torus"


def test_bool_flags_accept_the_usual_spellings(monkeypatch):
    for raw, expected in [("1", True), ("yes", True), ("on", True),
                          ("TRUE", True), ("0", False), ("off", False),
                          ("no", False), ("false", False)]:
        monkeypatch.setenv("REPRO_FULL", raw)
        assert config.resolve("full") is expected


# ----------------------------------------------------------------------
# The env view (library + CLI).
# ----------------------------------------------------------------------

def test_describe_renders_errors_inline(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "banana")
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    rows = {name: (value, source)
            for name, _env, value, source in config.describe()}
    assert rows["scale"] == ("0.5", "REPRO_SCALE")
    assert "<error:" in rows["jobs"][0]
    assert "REPRO_JOBS" in rows["jobs"][0]


def test_cli_env_subcommand_prints_the_table(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.25")
    monkeypatch.setenv("REPRO_JOBS", "banana")
    assert harness_main(["env"]) == 0
    out = capsys.readouterr().out
    assert "REPRO_SCALE" in out and "0.25" in out
    assert "REPRO_SERVICE" in out  # every registered knob is listed
    assert "<error:" in out  # malformed values render, not crash


#: A removed setting and a typo.  The removed name is spelled in two
#: parts, so that a search of the tree for it finds no live use.
UNKNOWN = {"REPRO_" + "RESUME": "1", "REPRO_SCLAE": "0.1"}


def test_an_unregistered_variable_is_listed_and_warned(capsys, monkeypatch):
    """No setting reads these, so the env table shows each as
    ``unknown (ignored)`` and every other command warns once per name on
    stderr, leaving its stdout byte-identical."""
    assert harness_main(["table6"]) == 0
    plain = capsys.readouterr()
    for name, value in UNKNOWN.items():
        monkeypatch.setenv(name, value)
    assert set(UNKNOWN) <= set(config.unknown_env())
    assert not set(UNKNOWN) & {entry.env
                               for entry in config.SETTINGS.values()}

    assert harness_main(["env"]) == 0
    listed = capsys.readouterr()
    for name, value in UNKNOWN.items():
        [row] = [line for line in listed.out.splitlines() if name in line]
        assert repr(value) in row and row.endswith("[unknown (ignored)]")
    assert "warning:" not in listed.err

    assert harness_main(["table6"]) == 0
    warned = capsys.readouterr()
    assert warned.out == plain.out
    warnings = [line for line in warned.err.splitlines()
                if line.startswith("warning: ")]
    for name in UNKNOWN:
        assert sum(f" {name} " in line for line in warnings) == 1


# ----------------------------------------------------------------------
# Call sites resolve through repro.config.
# ----------------------------------------------------------------------

def test_legacy_resolvers_raise_the_typed_error(monkeypatch):
    spec = experiment.RunSpec(16, experiment.Variant.BASELINE, "canneal")
    monkeypatch.setenv("REPRO_SCALE", "oops")
    with pytest.raises(config.ConfigError, match="REPRO_SCALE"):
        spec.scaled()
    monkeypatch.setenv("REPRO_JOBS", "nope")
    with pytest.raises(config.ConfigError, match="REPRO_JOBS"):
        parallel.resolve_jobs(None)
    monkeypatch.setenv("REPRO_FULL", "perhaps")
    with pytest.raises(config.ConfigError, match="REPRO_FULL"):
        experiment.default_workloads()


def test_legacy_resolvers_read_values_through_config(monkeypatch):
    spec = experiment.RunSpec(16, experiment.Variant.BASELINE, "canneal",
                              measure_instructions=1000,
                              warmup_instructions=400)
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert spec.scaled().measure_instructions == 500
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert parallel.resolve_jobs(None) == 3
    monkeypatch.setenv("REPRO_FULL", "yes")
    assert len(experiment.default_workloads()) == 22


# ----------------------------------------------------------------------
# One reader: no REPRO_* environment load outside repro/config.py.
# ----------------------------------------------------------------------

def _is_os_environ(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _repro_literal(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("REPRO_"))


def _env_loads(tree):
    """(lineno, variable) for every os.environ.get / os.getenv /
    os.environ[...] load of a "REPRO_*" literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args \
                and _repro_literal(node.args[0]):
            func = node.func
            is_get = (isinstance(func, ast.Attribute) and func.attr == "get"
                      and _is_os_environ(func.value))
            is_getenv = (isinstance(func, ast.Attribute)
                         and func.attr == "getenv"
                         and isinstance(func.value, ast.Name)
                         and func.value.id == "os")
            if is_get or is_getenv:
                yield node.lineno, node.args[0].value
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Load) \
                and _is_os_environ(node.value):
            if _repro_literal(node.slice):
                yield node.lineno, node.slice.value


def test_env_load_detector_sees_all_three_spellings():
    tree = ast.parse(
        "import os\n"
        "a = os.environ.get('REPRO_A')\n"
        "b = os.getenv('REPRO_B', '')\n"
        "c = os.environ['REPRO_C']\n"
        "os.environ['REPRO_D'] = '1'\n"      # a store, not a load
        "os.environ.pop('REPRO_E', None)\n"  # not a read of the value
        "d = os.environ.get('HOME')\n"
    )
    assert sorted(var for _line, var in _env_loads(tree)) == [
        "REPRO_A", "REPRO_B", "REPRO_C"]


def test_only_repro_config_reads_the_repro_environment():
    root = pathlib.Path(config.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == pathlib.Path(config.__file__):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(root)}:{line} reads {var}"
                      for line, var in _env_loads(tree)]
    assert not offenders, offenders
    # and the registry really is what the CLI lists
    assert "REPRO_SHARD_PIDFILE" in {
        entry.env for entry in config.SETTINGS.values()}
