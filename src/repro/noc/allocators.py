"""Round-robin arbiters and the two-phase separable VC/switch allocators.

The baseline router (paper Table 4) uses round-robin two-phase allocators:
phase 1 arbitrates among a unit's own candidates, phase 2 arbitrates among
phase-1 winners competing for the same resource.

:class:`RoundRobinArbiter` is the optimised hot-path arbiter (index
rotation, no per-arbitration list copies); the fast router runs its
allocation stages inline over it.  :class:`ReferenceRoundRobinArbiter`
and :func:`reference_two_phase_allocate` preserve the pre-overhaul
implementations verbatim; the reference router pipeline uses them so A/B
tests can prove the fast paths grant-for-grant identical.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Type, TypeVar

T = TypeVar("T")


class RoundRobinArbiter:
    """Classic rotating-priority arbiter over opaque candidate ids.

    Decision-identical to :class:`ReferenceRoundRobinArbiter` (the A/B
    property test in ``tests/test_hotpath_equivalence.py`` pins it), but
    rotates via ``candidates.index`` plus one integer increment instead
    of materialising two list copies per arbitration.
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last: Optional[Hashable] = None

    def pick(self, candidates: Sequence[T]) -> Optional[T]:
        """Grant one candidate, rotating priority after each grant."""
        n = len(candidates)
        if not n:
            return None
        last = self._last
        if last is None:
            winner = candidates[0]
        else:
            try:
                win = candidates.index(last) + 1
            except ValueError:
                # The previous winner is no longer a candidate, so there is
                # no position to rotate from: priority restarts at the first
                # candidate in submission order (the winner still becomes
                # the new rotation point, keeping future grants fair).
                winner = candidates[0]
            else:
                winner = candidates[0] if win == n else candidates[win]
        self._last = winner
        return winner

    def pick_at(self, candidates: Sequence[T]) -> int:
        """Like :meth:`pick` but return the winner's *index*.

        Callers holding a parallel payload list (the allocation stages)
        avoid a second ``index`` scan.  ``candidates`` must be non-empty.
        """
        last = self._last
        if last is None:
            win = 0
        else:
            try:
                win = candidates.index(last) + 1
            except ValueError:
                win = 0
            else:
                if win == len(candidates):
                    win = 0
        self._last = candidates[win]
        return win


class ReferenceRoundRobinArbiter:
    """Pre-overhaul arbiter, kept verbatim for A/B reference runs."""

    def __init__(self) -> None:
        self._last: Optional[Hashable] = None

    def pick(self, candidates: Sequence[T]) -> Optional[T]:
        """Grant one candidate, rotating priority after each grant."""
        if not candidates:
            return None
        if self._last is not None and self._last in candidates:
            start = (list(candidates).index(self._last) + 1) % len(candidates)
        else:
            # Previous winner absent (or no grant yet): restart priority at
            # the first candidate in submission order.
            start = 0
        ordered = list(candidates[start:]) + list(candidates[:start])
        winner = ordered[0]
        self._last = winner
        return winner


class ArbiterPool:
    """Lazy map of resource id -> arbiter."""

    __slots__ = ("_arbiters", "_factory")

    def __init__(self, factory: Type = RoundRobinArbiter) -> None:
        self._arbiters: Dict[Hashable, object] = {}
        self._factory = factory

    def pick(self, resource: Hashable, candidates: Sequence[T]) -> Optional[T]:
        arbiter = self._arbiters.get(resource)
        if arbiter is None:
            arbiter = self._arbiters[resource] = self._factory()
        return arbiter.pick(candidates)


def reference_two_phase_allocate(
    requests: Dict[Hashable, List[Hashable]],
    phase1: ArbiterPool,
    phase2: ArbiterPool,
) -> Dict[Hashable, Hashable]:
    """Generic separable allocation, kept for A/B reference runs.

    ``requests`` maps each requester to the resources it can use.  Phase 1:
    each requester picks one resource (round-robin over its options).
    Phase 2: each resource picks one requester.  Returns
    ``{requester: resource}`` for the winners.
    """
    proposals: Dict[Hashable, List[Hashable]] = {}
    for requester, resources in requests.items():
        choice = phase1.pick(requester, resources)
        if choice is not None:
            proposals.setdefault(choice, []).append(requester)
    grants: Dict[Hashable, Hashable] = {}
    for resource, requesters in proposals.items():
        winner = phase2.pick(resource, requesters)
        if winner is not None:
            grants[winner] = resource
    return grants
