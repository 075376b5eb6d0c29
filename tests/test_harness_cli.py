"""The repro-harness command-line interface."""

import pytest

from repro.harness.__main__ import COMMANDS, main


@pytest.fixture(autouse=True)
def tiny_runs(monkeypatch):
    """Make CLI invocations fast by shrinking the simulation quanta."""
    monkeypatch.setenv("REPRO_SCALE", "0.08")
    monkeypatch.delenv("REPRO_FULL", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)


def test_cli_table6(capsys):
    assert main(["table6"]) == 0
    out = capsys.readouterr().out
    assert "Table 6" in out
    assert "Fragmented" in out


def test_cli_table1_small(capsys, monkeypatch):
    # restrict to one light workload for speed
    monkeypatch.setattr(
        "repro.harness.__main__.default_workloads",
        lambda full=None: ["water_spatial"],
    )
    assert main(["table1", "--cores", "16"]) == 0
    out = capsys.readouterr().out
    assert "message class" in out
    assert "L2_REPLY" in out


def test_cli_fig9_small(capsys, monkeypatch):
    monkeypatch.setattr(
        "repro.harness.__main__.default_workloads",
        lambda full=None: ["water_spatial"],
    )
    assert main(["fig9", "--cores", "16"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "Ideal" in out


def test_serial_warm_table1_parses_each_store_shard_once(
        capsys, monkeypatch, tmp_path, shard_reads):
    from repro.harness import experiment
    from repro.harness.cache import ShardedCache

    store = tmp_path / "store"
    ShardedCache(str(store), n_shards=1)  # every cell shares one shard
    monkeypatch.setenv("REPRO_CACHE", str(store) + "/")
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setattr(
        "repro.harness.__main__.default_workloads",
        lambda full=None: ["water_spatial", "blackscholes"],
    )
    with experiment.fresh_memo():
        assert main(["table1", "--jobs", "1"]) == 0
    cold = capsys.readouterr().out
    shard_reads.clear()
    with experiment.fresh_memo():
        assert main(["table1", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == cold
    assert dict(shard_reads) == {"shard-000.bin": 1}


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["figX"])


def test_all_commands_registered():
    assert set(COMMANDS) == {
        "table1", "table5", "table6",
        "fig6", "fig7", "fig8", "fig9", "fig10",
    }


def test_cli_trace_writes_artifacts(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "--workload", "fft", "--interval", "200"]) == 0
    out = capsys.readouterr().out
    assert "Baseline" in out and "Complete_NoAck" in out
    assert "circuit hit rate" in out
    assert "perfetto" in out
    traces = list((tmp_path / "out" / "trace").glob("*.json"))
    assert len(traces) == 2  # one per variant
    csvs = list((tmp_path / "out" / "telemetry").glob("*_metrics.csv"))
    assert len(csvs) == 2
    header = csvs[0].read_text().splitlines()[0].split(",")
    assert "circuit_hit_rate" in header and len(header) >= 6


def test_cli_profile_prints_component_table(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["profile", "--workload", "fft"]) == 0
    out = capsys.readouterr().out
    assert "Kernel profile" in out
    assert "Router" in out and "coherence" in out
    assert "skip ratio" in out


def test_cli_trace_rejects_unknown_variant(capsys):
    assert main(["trace", "--variant", "NoSuchVariant"]) == 2
    assert "unknown variant" in capsys.readouterr().err


# ----------------------------------------------------------------------
# User errors are caught by type: one ConfigError, one-line message.
# ----------------------------------------------------------------------

def test_one_config_error_class_covers_topology_errors():
    import repro.config
    import repro.noc
    from repro.noc.topology import make_topology

    assert repro.noc.ConfigError is repro.config.ConfigError
    with pytest.raises(repro.config.ConfigError):
        make_topology("ring", 16)
    with pytest.raises(repro.config.ConfigError):
        make_topology("cmesh", 32)


@pytest.mark.parametrize("env,value,argv,needle", [
    # none of these messages used to contain "REPRO_", so the CLI's
    # string test let them through as tracebacks
    ("REPRO_TOPOLOGY", "cmesh", ["table1", "--cores", "32"], "cmesh"),
    ("REPRO_TOPOLOGY", "mesh", ["table1", "--cores", "32"], "n_cores"),
    ("REPRO_SHARDS", "9", ["table1"], "router-grid height"),
    ("REPRO_SHARDS", "x", ["table1"], "REPRO_SHARDS"),
    ("REPRO_TOPOLOGY", "ring", ["trace"], "REPRO_TOPOLOGY"),
], ids=["cmesh-32", "mesh-32", "shards-9", "shards-x", "trace-ring"])
def test_cli_config_error_exits_2(monkeypatch, capsys, env, value, argv,
                                  needle):
    monkeypatch.setenv(env, value)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert len(err.strip().splitlines()) == 1


def test_cli_help_lists_every_registered_variable(capsys):
    from repro import config

    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for entry in config.SETTINGS.values():
        assert entry.env in out
