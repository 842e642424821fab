"""Segment tree with lazy range-add and range-max queries.

Classic lazy propagation; all operations are ``O(log n)``.

This once backed the tree index's neighbour-gain bounds.  The index no
longer uses it: its search only reads the painted maximum over its own
segment-tree nodes, and its refreshes already walk exactly those nodes,
so it keeps the paint as a flat per-slot array updated by one
difference-array pass per refresh (see :mod:`repro.core.tree_index`).
The module stays as a tested general-purpose structure, and because the
wall-clock benchmark's tracer still counts calls to
:meth:`RangeAddMaxTree.add` and :meth:`RangeAddMaxTree.max_in` by name.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["RangeAddMaxTree"]


class RangeAddMaxTree:
    """Array of ``n`` floats (1-based) with range-add and range-max."""

    __slots__ = ("n", "_max", "_lazy")

    def __init__(self, n: int):
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        self.n = n
        self._max = [0.0] * (4 * n)
        self._lazy = [0.0] * (4 * n)

    def add(self, lo: int, hi: int, value: float) -> None:
        """Add ``value`` to every position in ``[lo, hi]`` (clamped)."""
        lo = max(1, lo)
        hi = min(self.n, hi)
        if hi < lo or value == 0.0:
            return
        if lo == 1 and hi == self.n:
            self._max[1] += value
            self._lazy[1] += value
            return
        self._add(1, 1, self.n, lo, hi, value)

    def max_in(self, lo: int, hi: int) -> float:
        """Maximum value over ``[lo, hi]`` (clamped; -inf if empty)."""
        lo = max(1, lo)
        hi = min(self.n, hi)
        if hi < lo:
            return float("-inf")
        return self._query(1, 1, self.n, lo, hi)

    def value_at(self, pos: int) -> float:
        """The current value at a single position."""
        return self.max_in(pos, pos)

    # ------------------------------------------------------------------
    # State capture (journal snapshots)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Verbatim node arrays.

        The accumulators carry float round-off *history* (an add
        followed by its reversal need not restore the old bits), so an
        exact snapshot must copy them rather than re-derive them.
        """
        return {"n": self.n, "max": list(self._max), "lazy": list(self._lazy)}

    @classmethod
    def from_state(cls, state: dict) -> "RangeAddMaxTree":
        """Rebuild a tree bit-identical to the captured one."""
        tree = cls(state["n"])
        tree._max = [float(v) for v in state["max"]]
        tree._lazy = [float(v) for v in state["lazy"]]
        return tree

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _add(self, node: int, l: int, r: int, lo: int, hi: int, value: float) -> None:
        # ``[l, r]`` overlaps ``[lo, hi]`` without lying inside it.  A
        # child is visited only if it overlaps, and a covered child is
        # updated in place, so no call is spent on a no-op.
        tree_max = self._max
        lazy = self._lazy
        mid = (l + r) // 2
        left = 2 * node
        right = left + 1
        if lo <= mid:
            if lo <= l and mid <= hi:
                tree_max[left] += value
                lazy[left] += value
            else:
                self._add(left, l, mid, lo, hi, value)
        if hi > mid:
            if lo <= mid + 1 and r <= hi:
                tree_max[right] += value
                lazy[right] += value
            else:
                self._add(right, mid + 1, r, lo, hi, value)
        # ``b if b > a else a`` is exactly ``max(a, b)``, NaN included.
        a = tree_max[left]
        b = tree_max[right]
        tree_max[node] = lazy[node] + (b if b > a else a)

    def _query(self, node: int, l: int, r: int, lo: int, hi: int) -> float:
        if lo <= l and r <= hi:
            return self._max[node]
        mid = (l + r) // 2
        if hi <= mid:
            below = self._query(2 * node, l, mid, lo, hi)
        elif lo > mid:
            below = self._query(2 * node + 1, mid + 1, r, lo, hi)
        else:
            below = max(
                self._query(2 * node, l, mid, lo, hi),
                self._query(2 * node + 1, mid + 1, r, lo, hi),
            )
        return below + self._lazy[node]
