"""Checks of the benchmark itself (``python3 -m pytest bench -q``).

Outside the tier-1 ``testpaths``: the quick pass takes about a minute.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from bench import catalog, compare, host, runner
from bench.tracing import Tracer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(host.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "result.json"
    subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--trace",
         "--out", str(out)],
        cwd=host.ROOT, check=True, timeout=600)
    with open(out) as handle:
        return json.load(handle)


def test_manifest_is_the_catalogue(manifest):
    assert manifest == catalog.manifest()


def test_manifest_within_limits(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    runs = 4 + 22 * len(manifest["workloads"])
    assert runs * manifest["run_seconds"] < 3420
    names = [w["name"] for w in manifest["workloads"]] \
        + [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        why = workload["why"]
        assert 0 < len(why) <= 200 and "\n" not in why
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in manifest["end_to_end"])}]


def test_result_names_what_the_manifest_names(manifest, quick_result):
    # The result file has every workload, the manifest the gated ones.
    assert list(quick_result["workloads"]) == \
        [w.name for w in catalog.WORKLOADS]
    assert [w["name"] for w in manifest["workloads"]] == \
        [w.name for w in catalog.WORKLOADS if w.gated]
    for entry in quick_result["workloads"].values():
        assert list(entry["end_to_end"]) == \
            [m["name"] for m in manifest["end_to_end"]]
        assert list(entry["per_layer"]) == \
            [m["name"] for m in manifest["per_layer"]]
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        for row in entry["end_to_end"].values():
            assert row["median"] > 0  # end-to-end metrics are never 0


def test_every_layer_metric_runs_somewhere(quick_result):
    for metric in catalog.PER_LAYER:
        values = [entry["per_layer"][metric.name]["value"]
                  for entry in quick_result["workloads"].values()]
        # respawns and failed reservations may honestly be 0
        if metric.name.endswith("respawns"):
            continue
        assert any(values), f"{metric.name} is 0 on every workload"


def test_replica_and_traced_spans_cover_the_pass(quick_result):
    for name, entry in quick_result["workloads"].items():
        frac = entry["per_layer"]["trace.self_time_frac"]["value"]
        assert 0.95 <= frac <= 1.0001, (name, frac)


def test_result_compares_clean_with_itself(quick_result, capsys):
    assert compare.compare(quick_result, quick_result) == 0
    assert "no regression" in capsys.readouterr().out


def test_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "ok"
    assert compare.verdict(steady, [1.2, 1.21, 1.19, 1.2],
                           "lower", 0.1)[0] == "regressed"
    assert compare.verdict(steady, [0.8, 0.81, 0.79, 0.8],
                           "lower", 0.1)[0] == "ok"
    assert compare.verdict(steady, [0.8, 0.81, 0.79, 0.8],
                           "higher", 0.1)[0] == "regressed"
    noisy = [0.7, 1.0, 1.3, 1.0]
    assert compare.verdict(noisy, [1.2, 0.9, 1.6, 1.2],
                           "lower", 0.1)[0] == "unresolved"
    # wider than the bound, but every run of the change beats the parent
    assert compare.verdict(noisy, [0.5, 0.6, 0.4, 0.5],
                           "lower", 0.1)[0] == "ok"


def test_steady_restates_for_the_reference_host():
    quiet = host.SLICE_ITERS / host.REFERENCE_ITERS_PER_S
    draws = [(1.0, quiet, quiet)] * 4
    assert runner._steady(draws) == pytest.approx(1.0)
    # a host at half speed takes twice as long over both
    assert runner._steady([(2.0, 2 * quiet, 2 * quiet)] * 4) == \
        pytest.approx(1.0)
    # the median, so a burst in some timings or slices does not show
    assert runner._steady(draws + [(1.5, quiet, quiet), (1.0, quiet,
                                                         9 * quiet)]) == \
        pytest.approx(1.0)


def test_compare_flags_a_changed_digest(quick_result):
    changed = json.loads(json.dumps(quick_result))
    changed["workloads"]["cmp16_canneal"]["digest"] = "0" * 64
    assert compare.compare(quick_result, changed) == 1


def test_self_time_is_span_minus_children():
    tracer = Tracer("w")
    with tracer.span("root") as root:
        with tracer.span("child"):
            pass
        tracer.record("stamped", root.start, root.start + 0.25)
        tracer.aggregate("summed", 0.5)
    table = tracer.self_times()
    assert table["summed"] == 0.5 and table["stamped"] == 0.25
    child = next(s for s in tracer.spans if s.name == "child")
    assert table["root"] == pytest.approx(
        root.seconds - child.seconds - 0.75)
    assert sum(table.values()) == pytest.approx(tracer.root_seconds())
