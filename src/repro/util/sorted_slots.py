"""A sorted set of integer time slots with temporal-neighbour queries.

The paper's Algorithm 1 keeps "a sorted list for subtasks that are
sorted in the ascending order of the corresponding time slots" and uses
it to answer *temporal k-nearest-neighbour* queries: given a query slot,
return the ``k`` executed slots with the smallest absolute index
difference.  :class:`SortedSlots` is that structure, built on
:mod:`bisect` so insertion is ``O(m)`` worst case (array shift) but
queries are ``O(log m + k)`` — the complexity the paper quotes.
"""

from __future__ import annotations

from bisect import bisect_left, insort

__all__ = ["SortedSlots"]


class SortedSlots:
    """Sorted container of distinct integer slots.

    Supports membership tests, ordered iteration, and the neighbour
    queries used by the temporal interpolation code: ``k`` nearest
    slots, counts to the left/right of a pivot, and the ``j``-th
    executed slot on either side of a pivot.
    """

    __slots__ = ("_slots",)

    def __init__(self, slots=()):
        self._slots: list[int] = sorted(set(slots))

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self):
        return iter(self._slots)

    def __contains__(self, slot: int) -> bool:
        i = bisect_left(self._slots, slot)
        return i < len(self._slots) and self._slots[i] == slot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SortedSlots({self._slots!r})"

    def as_list(self) -> list[int]:
        """Return a copy of the slots in ascending order."""
        return list(self._slots)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, slot: int) -> bool:
        """Insert ``slot``; return ``True`` if it was not present."""
        i = bisect_left(self._slots, slot)
        if i < len(self._slots) and self._slots[i] == slot:
            return False
        self._slots.insert(i, slot)
        return True

    def remove(self, slot: int) -> None:
        """Remove ``slot``; raise :class:`KeyError` if absent."""
        i = bisect_left(self._slots, slot)
        if i == len(self._slots) or self._slots[i] != slot:
            raise KeyError(slot)
        del self._slots[i]

    # ------------------------------------------------------------------
    # Neighbour queries
    # ------------------------------------------------------------------
    def k_nearest(self, slot: int, k: int, *, exclude: int | None = None) -> list[int]:
        """Return up to ``k`` stored slots closest to ``slot``.

        Distance is the absolute index difference.  Ties are broken in
        favour of the *smaller* slot index, which makes every algorithm
        built on top of this query deterministic.  ``exclude`` removes
        one slot (typically the query slot itself) from consideration.
        """
        if k <= 0:
            return []
        slots = self._slots
        n = len(slots)
        if n == 0:
            return []
        i = bisect_left(slots, slot)
        left = i - 1
        right = i
        out: list[int] = []
        while len(out) < k and (left >= 0 or right < n):
            if left >= 0 and slots[left] == exclude:
                left -= 1
                continue
            if right < n and slots[right] == exclude:
                right += 1
                continue
            if left < 0:
                out.append(slots[right])
                right += 1
            elif right >= n:
                out.append(slots[left])
                left -= 1
            else:
                dl = slot - slots[left]
                dr = slots[right] - slot
                # Tie-break toward the smaller index (the left one).
                if dl <= dr:
                    out.append(slots[left])
                    left -= 1
                else:
                    out.append(slots[right])
                    right += 1
        return out

    def k_nearest_with(self, slot: int, k: int, extra: int) -> list[int]:
        """:meth:`k_nearest` over the stored slots plus ``extra``.

        ``extra`` must not be stored.  The order is the same (distance,
        then the smaller index), so this equals merging ``extra`` into
        ``k_nearest(slot, k)`` and keeping the first ``k`` — without
        building the intermediate list.  It answers "the k-NN set if
        ``extra`` were executed", the evaluator's innermost query.
        """
        slots = self._slots
        n = len(slots)
        left = bisect_left(slots, slot) - 1
        right = left + 1
        d_extra = abs(extra - slot)
        pending = True
        out: list[int] = []
        while len(out) < k:
            if left >= 0:
                e = slots[left]
                d = slot - e
                if right < n and slots[right] - slot < d:
                    e = slots[right]
                    d = e - slot
            elif right < n:
                e = slots[right]
                d = e - slot
            else:
                if pending:
                    out.append(extra)
                break
            if pending and (d_extra < d or (d_extra == d and extra < e)):
                out.append(extra)
                pending = False
            else:
                out.append(e)
                if e < slot:
                    left -= 1
                else:
                    right += 1
        return out

    def kth_left(self, slot: int, k: int) -> int | None:
        """The ``k``-th stored slot strictly below ``slot`` (1-based)."""
        i = bisect_left(self._slots, slot)
        j = i - k
        return self._slots[j] if j >= 0 else None

    def kth_right(self, slot: int, k: int) -> int | None:
        """The ``k``-th stored slot strictly above ``slot`` (1-based)."""
        slots = self._slots
        i = bisect_left(slots, slot)
        if i < len(slots) and slots[i] == slot:
            i += 1
        j = i + k - 1
        return slots[j] if j < len(slots) else None

    def count_below(self, slot: int) -> int:
        """Number of stored slots strictly below ``slot``."""
        return bisect_left(self._slots, slot)

    def count_in(self, lo: int, hi: int) -> int:
        """Number of stored slots in the closed interval ``[lo, hi]``."""
        if hi < lo:
            return 0
        return bisect_left(self._slots, hi + 1) - bisect_left(self._slots, lo)

    def nearest(self, slot: int) -> int | None:
        """The single nearest stored slot (ties toward the smaller)."""
        result = self.k_nearest(slot, 1)
        return result[0] if result else None
