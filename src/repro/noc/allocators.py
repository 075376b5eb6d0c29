"""The round-robin arbiter behind the two-phase separable VC/switch allocators.

The baseline router (paper Table 4) uses round-robin two-phase allocators:
phase 1 arbitrates among a unit's own candidates, phase 2 arbitrates among
phase-1 winners competing for the same resource.  The router runs both
phases inline over :class:`RoundRobinArbiter` instances.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, TypeVar

T = TypeVar("T")


class RoundRobinArbiter:
    """Classic rotating-priority arbiter over opaque candidate ids.

    Rotates via ``candidates.index`` plus one integer increment instead
    of materialising two list copies per arbitration (the list-copying
    formulation survives as the oracle of the property test in
    ``tests/test_hotpath_equivalence.py``).
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
