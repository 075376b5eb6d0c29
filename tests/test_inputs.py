"""External inputs fail typed: a mutated wire spec raises only
:class:`~repro.service.protocol.ServiceError` (naming the field) or
:class:`~repro.config.ConfigError`, never a bare ``KeyError`` /
``TypeError`` / ``ValueError``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ConfigError
from repro.harness.experiment import RunSpec, spec_keys
from repro.service.protocol import ServiceError, spec_from_json, spec_to_json
from repro.sim.config import Variant
from repro.telemetry import TelemetryConfig

VALID = [
    spec_to_json(RunSpec(16, Variant.COMPLETE_NOACK, "canneal", 3, 500, 200,
                         topology="torus")),
    spec_to_json(RunSpec(64, Variant.BASELINE, "fft",
                         telemetry=TelemetryConfig(interval=250))),
]

#: Any value JSON can carry (``json.loads`` also accepts NaN / Infinity).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


def _decode(data) -> None:
    """Decode ``data`` and key the spec the way the daemon does; only the
    typed errors may escape."""
    try:
        spec = spec_from_json(data)
    except (ServiceError, ConfigError):
        return
    assert isinstance(spec, RunSpec)
    try:
        spec_keys([spec])
    except ConfigError:
        pass


def _mutate(draw_field, draw_value, data: dict, action: str) -> object:
    data = dict(data)
    if action == "replace":
        data[draw_field(sorted(data))] = draw_value()
    elif action == "delete":
        del data[draw_field(sorted(data))]
    elif action == "telemetry" and isinstance(data.get("telemetry"), dict):
        telemetry = dict(data["telemetry"])
        telemetry[draw_field(sorted(telemetry))] = draw_value()
        data["telemetry"] = telemetry
    elif action == "whole":
        return draw_value()
    else:
        data["telemetry"] = draw_value()
    return data


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_spec_fails_typed(data):
    base = data.draw(st.sampled_from(VALID))
    action = data.draw(st.sampled_from(
        ["replace", "delete", "telemetry", "whole", "set-telemetry"]))
    mutated = _mutate(lambda names: data.draw(st.sampled_from(names)),
                      lambda: data.draw(json_values), base, action)
    _decode(mutated)


def test_a_seeded_replay_of_3000_mutations_finds_no_untyped_error():
    rng = random.Random(2063)
    pool = [None, True, -1, 0, 2**70, 1.5, float("inf"), float("nan"), "",
            "x", "16", "Baseline", [], [1], {}, {"a": 1}]
    untyped = []
    for _ in range(3000):
        mutated = _mutate(rng.choice, lambda: rng.choice(pool),
                          rng.choice(VALID), rng.choice(
                              ["replace", "delete", "telemetry", "whole",
                               "set-telemetry"]))
        try:
            _decode(mutated)
        except Exception as exc:  # noqa: BLE001 - counting what escapes
            untyped.append((mutated, exc))
    assert untyped == []


@pytest.mark.parametrize("field,value", [
    ("n_cores", "sixteen"), ("variant", "NoSuchVariant"),
    ("workload", 7), ("seed", None), ("measure_instructions", float("inf")),
    ("warmup_instructions", KeyError), ("telemetry", 3),
    ("topology", ["mesh"]),
])
def test_the_service_error_names_the_field(field, value):
    """``KeyError`` as the value stands for a missing field."""
    data = dict(VALID[0], **{field: value})
    if value is KeyError:
        del data[field]
    with pytest.raises(ServiceError, match=repr(field)):
        spec_from_json(data)


def test_valid_specs_round_trip():
    for data in VALID:
        assert spec_to_json(spec_from_json(data)) == data
