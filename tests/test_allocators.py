"""The round-robin arbiter behind the separable allocators."""

from repro.noc.allocators import RoundRobinArbiter


def test_round_robin_rotates():
    arb = RoundRobinArbiter()
    grants = [arb.pick(["a", "b", "c"]) for _ in range(6)]
    assert grants == ["a", "b", "c", "a", "b", "c"]


def test_round_robin_single_candidate():
    arb = RoundRobinArbiter()
    assert arb.pick(["x"]) == "x"
    assert arb.pick(["x"]) == "x"
    assert arb.pick([]) is None


def test_round_robin_fairness_under_contention():
    arb = RoundRobinArbiter()
    wins = {"a": 0, "b": 0}
    for _ in range(100):
        wins[arb.pick(["a", "b"])] += 1
    assert wins["a"] == wins["b"] == 50
