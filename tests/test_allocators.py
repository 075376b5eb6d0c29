"""Round-robin arbiters and the two-phase separable allocator."""

from hypothesis import given, strategies as st

from repro.noc.allocators import (
    ArbiterPool,
    RoundRobinArbiter,
    reference_two_phase_allocate,
)


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


def test_arbiter_pool_is_per_resource():
    pool = ArbiterPool()
    assert pool.pick("r1", ["a", "b"]) == "a"
    assert pool.pick("r2", ["a", "b"]) == "a"  # independent pointer
    assert pool.pick("r1", ["a", "b"]) == "b"


def test_two_phase_grants_are_conflict_free():
    p1, p2 = ArbiterPool(), ArbiterPool()
    requests = {
        "in0": ["outA", "outB"],
        "in1": ["outA"],
        "in2": ["outB"],
    }
    grants = reference_two_phase_allocate(requests, p1, p2)
    # each requester gets at most one resource; each resource one requester
    assert len(set(grants.values())) == len(grants)
    for requester, resource in grants.items():
        assert resource in requests[requester]


@given(st.dictionaries(
    st.integers(0, 9),
    st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
    max_size=8,
))
def test_two_phase_properties(requests):
    p1, p2 = ArbiterPool(), ArbiterPool()
    grants = reference_two_phase_allocate(requests, p1, p2)
    # a resource is granted to at most one requester
    assert len(set(grants.values())) == len(grants)
    # every grant was requested
    for requester, resource in grants.items():
        assert resource in requests[requester]
    # every resource requested by exactly one proposer gets granted to it
    # (phase-2 has no competition): weaker liveness check - at least one
    # grant whenever there is any request
    if requests:
        assert grants


def test_two_phase_serves_everyone_over_time():
    """No starvation: repeated allocation grants every requester."""
    p1, p2 = ArbiterPool(), ArbiterPool()
    requests = {f"in{i}": ["out"] for i in range(4)}
    winners = set()
    for _ in range(8):
        grants = reference_two_phase_allocate(requests, p1, p2)
        winners.update(grants)
    assert winners == set(requests)
