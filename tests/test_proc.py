"""`repro.proc.Fleet`: only what no higher-level suite pins.

Retry budgets, timeouts, the orphan guard and the shutdown ladder are
exercised through their users (`test_parallel`, `test_service`,
`test_shard_recovery`, `test_harness_robustness`).
"""

import os
import time

import pytest

from repro.proc import Fleet


def _collect(fleet, until, timeout=60.0):
    """Pump ``fleet.events()`` until ``until(events)`` holds."""
    events = []
    deadline = time.monotonic() + timeout
    while not until(events):
        assert time.monotonic() < deadline, f"timed out with {events}"
        events += fleet.events(timeout=0.2)
    return events


def _kinds(events, kind):
    return [event for event in events if event[0] == kind]


def _emit_three(payload, emit):
    for i in range(3):
        emit((payload, i))
    return payload * 2


def test_emitted_events_arrive_before_done():
    fleet = Fleet(_emit_three, size=1)
    try:
        fleet.submit("t", 21)
        events = _collect(fleet, lambda seen: _kinds(seen, "done"))
    finally:
        fleet.close()
    assert events == [
        ("started", "t", events[0][2], 0),
        ("event", "t", (21, 0)),
        ("event", "t", (21, 1)),
        ("event", "t", (21, 2)),
        ("done", "t", 42),
    ]


def _die_if_bad(payload, emit):
    if payload == "bad":
        os._exit(17)  # simulate a segfaulting / OOM-killed worker
    time.sleep(0.3)
    return payload


def test_death_is_charged_to_the_task_in_flight_only():
    """Two workers, four tasks: 'bad' kills its worker on every attempt
    while 'held' runs beside it and two more wait in the queue."""
    fleet = Fleet(_die_if_bad, size=2, retries=1)
    try:
        for task in ("bad", "held", "queued-1", "queued-2"):
            fleet.submit(task, task)
        events = _collect(
            fleet, lambda seen: len(_kinds(seen, "done")) == 3
            and _kinds(seen, "gave_up"))
    finally:
        fleet.close()
    [gave_up] = _kinds(events, "gave_up")
    assert gave_up[1:3] == ("bad", 2)  # retries=1: the 2nd death is final
    assert "exit 17" in gave_up[3]
    charged = {event[1]: event[3] for event in _kinds(events, "started")}
    assert charged == {"bad": 1, "held": 0, "queued-1": 0, "queued-2": 0}
    assert sorted(event[1] for event in _kinds(events, "done")) == [
        "held", "queued-1", "queued-2"]
    assert fleet.respawns == 2


def _wait_for_file(path, emit):
    while not os.path.exists(path):
        time.sleep(0.02)
    return "released"


def test_workers_report_and_close_leaves_no_child(tmp_path):
    gate = str(tmp_path / "gate")
    fleet = Fleet(_wait_for_file, size=2)
    try:
        fleet.submit("t", gate)
        [started] = _collect(fleet, lambda seen: seen)
        rows = fleet.workers()
        assert [set(row) for row in rows] == [
            {"pid", "alive", "current", "executed"}] * 2
        assert all(row["alive"] and row["executed"] == 0 for row in rows)
        [busy] = [row for row in rows if row["current"] == "t"]
        assert busy["pid"] == started[2]
        open(gate, "w").close()
        _collect(fleet, lambda seen: _kinds(seen, "done"))
        rows = fleet.workers()
        assert all(row["current"] is None for row in rows)
        assert sorted(row["executed"] for row in rows) == [0, 1]
    finally:
        fleet.close()
    fleet.close()  # idempotent
    assert fleet.workers() == []
    for row in rows:
        with pytest.raises(ProcessLookupError):
            os.kill(row["pid"], 0)
