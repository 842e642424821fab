"""The aggregated-tree index behind ``Approx*`` (Section III-C).

The naive Algorithm 1 spends its time in two places: (i) enumerating
all ``m`` subtasks to find the one with the maximum heuristic value and
(ii) recomputing interpolation probabilities for all slots per
candidate.  The paper attacks both with a binary tree over the slot
line ``[1, m]`` that *approximates the order-k Voronoi diagram*:

* leaves are time segments of at most ``ts`` slots (the paper's
  Condition 2 — the fanout knob), or segments entirely inside one
  order-k Voronoi cell (Condition 1, checked during descent);
* every node carries aggregates from which an *upper bound* on the
  heuristic value of any slot in its segment follows;
* the maximum-heuristic slot is found by best-first search over the
  tree with a max-heap, pruning nodes whose upper bound cannot beat
  the best exact value found so far.

Upper-bound derivation (sound, hence the indexed solver provably
returns the *same* slot as the naive greedy):

Executing a slot ``s`` changes the quality by

    dq(s) = [phi(lam_s/m) - phi(p_s)]  +  sum_{u affected} gain_u(s)

Per Eq. 6, a single tentative execution can evict at most the farthest
neighbour from ``u``'s k-NN set, so ``u``'s probability rises by at
most ``((m-1) - lam_far (m - d_k(u))) / (k m^2)`` (nothing is evicted
when ``u`` has fewer than ``k`` executed neighbours); pushing that
through the entropy term gives a per-slot bound ``nbr_ub(u)``.

A slot ``u`` can only be affected when ``|u - s| <= d_k(u)``, i.e.
when ``s`` lies inside ``u``'s *influence interval*
``I_u = [u - d_k(u), u + d_k(u)]`` (the tree analogue of the paper's
per-node influence ranges).  Every unexecuted slot therefore *paints*
``nbr_ub(u)`` over ``I_u``; the painted value at position ``s`` is
``sum_{u : s in I_u} nbr_ub(u)``, an upper bound on the whole
neighbour term of ``dq(s)``.  A node's bound is then::

    ub_gain(node) = max_self_gain(node) + max painted value over [l, r]
    ub_heur(node) = ub_gain(node) / max(min_cost(node), eps)

The paint is kept flat, next to the tree rather than in a second one:
``_pv[s]`` holds the painted value of slot ``s`` and ``_agg_paint``
the per-node maximum of ``_pv`` over the node's segment, pulled up
with the other aggregates.  A repaint records each ``(lo, hi, +-v)``
segment as two writes into a scratch difference array; one prefix-sum
pass over the touched span (:meth:`TreeIndex._flush_paint`, at the end
of every :meth:`~TreeIndex.refresh_range` and of the full build)
applies the whole batch to ``_pv``, and the aggregate update is widened
to that span.  Search only ever reads the paint maximum over the tree's
own nodes, so nothing finer is needed.

Pruning keeps a node whose bound lies within a relative ``1e-12`` of
the incumbent: a bound can round an ulp below a slot's exact
``gain / cost``, and pruning on a plain ``<`` would then drop an
equal-heuristic slot with a smaller index that the tie-break prefers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add

from repro.core.evaluator import TemporalQualityEvaluator
from repro.core.instrumentation import OpCounters
from repro.core.quality import entropy_term
from repro.errors import ConfigurationError, JournalCorruptionError
from repro.util.heaps import LazyMaxHeap

__all__ = ["BestCandidate", "TreeIndex", "COST_EPSILON"]

#: Floor applied to costs in heuristic ratios so zero-cost subtasks get
#: a large-but-finite priority instead of dividing by zero.
COST_EPSILON = 1e-9

_NEG_INF = float("-inf")
_INF = float("inf")

#: A node is pruned only when its bound falls below the incumbent's
#: heuristic by more than this relative slack (see module docstring).
_PRUNE_FACTOR = 1.0 - 1e-12


@dataclass(frozen=True, slots=True)
class BestCandidate:
    """The exact winner of one best-first search."""

    slot: int
    gain: float
    cost: float
    heuristic: float


class TreeIndex:
    """Aggregated binary tree over the slot line of one task.

    The index mirrors a :class:`TemporalQualityEvaluator` and a cost
    table.  After every committed execution, call :meth:`refresh_range`
    with the evaluator's affected window so the aggregates stay
    consistent.
    """

    def __init__(
        self,
        evaluator: TemporalQualityEvaluator,
        costs,
        *,
        ts: int = 4,
        counters: OpCounters | None = None,
    ):
        """``costs`` must expose ``cost(slot) -> float | None`` and
        ``reliability(slot) -> float`` (None = unassignable slot)."""
        if ts < 1:
            raise ConfigurationError(f"ts must be >= 1, got {ts}")
        self.ev = evaluator
        self.costs = costs
        self.ts = ts
        self.m = evaluator.m
        self.counters = counters if counters is not None else evaluator.counters

        m = self.m
        # Per-slot state (index 0 unused).
        self._cost = [0.0] * (m + 1)
        self._rel = [1.0] * (m + 1)
        self._self_gain = [_NEG_INF] * (m + 1)
        self._painted: list[list[tuple[int, int, float]] | None] = [None] * (m + 1)
        for slot in range(1, m + 1):
            cost = costs.cost(slot)
            self._cost[slot] = _INF if cost is None else float(cost)
            self._rel[slot] = costs.reliability(slot) if cost is not None else 0.0

        # Influence painting: nbr_ub(u) over I_u (see module docstring).
        # _diff is all zeros and [_dlo, _dhi] empty between calls.
        self._pv = [0.0] * (m + 1)
        self._diff = [0.0] * (m + 2)
        self._dlo = m + 1
        self._dhi = 0
        # Segment-tree aggregates over leaf buckets of <= ts slots.
        self._agg_self = [_NEG_INF] * (4 * (m + 1))
        self._agg_cost = [_INF] * (4 * (m + 1))
        self._agg_cand = [0] * (4 * (m + 1))
        self._agg_paint = [_NEG_INF] * (4 * (m + 1))
        self.node_count = 0
        for slot in range(1, m + 1):
            self._refresh_slot(slot)
        self._flush_paint()
        self._build(1, 1, m)
        self.counters.index_full_builds += 1

    # ------------------------------------------------------------------
    # Per-slot state
    # ------------------------------------------------------------------
    def _refresh_slot(self, slot: int) -> None:
        """Recompute per-slot derived values and repaint its influence."""
        ev = self.ev
        m, k = ev.m, ev.k

        old = self._painted[slot]
        if ev.is_executed(slot):
            self._self_gain[slot] = _NEG_INF
            self._unpaint(slot)
            return

        p = ev.p(slot)
        # Self gain: the slot flips from interpolated to executed.
        if self._cost[slot] == _INF:
            self._self_gain[slot] = _NEG_INF
        else:
            self._self_gain[slot] = entropy_term(self._rel[slot] / m) - entropy_term(p)
        # Neighbour bound (Eq. 6 generalized): executing a slot at
        # distance d from `slot` inserts a contribution of at most
        # (m - d) and evicts at most the current farthest neighbour.
        far = ev.farthest_neighbor(slot)
        if far is None:
            dk = m
            evicted = 0.0
        else:
            dk, lam_far = far
            evicted = lam_far * (m - dk)

        def gain_at(distance: int) -> float:
            delta_p = ((m - distance) - evicted) / (k * m * m)
            if delta_p <= 0.0:
                return 0.0
            p_ub = min(p + delta_p, 1.0 / m)
            return max(entropy_term(p_ub) - entropy_term(p), 0.0)

        # Distance-banded painting: band (a, b] is bounded by the gain
        # at its inner edge a+1.  Geometric doubling keeps the band
        # count at O(log d_k) while staying tight near the slot, where
        # the true gain is largest.
        segments: list[tuple[int, int, float]] = []
        a = 0
        width = 1
        while a < dk:
            b = min(a + width, dk)
            value = gain_at(a + 1)
            if value > 0.0:
                lo_l, hi_l = slot - b, slot - a - 1
                if hi_l >= 1:
                    segments.append((max(1, lo_l), hi_l, value))
                lo_r, hi_r = slot + a + 1, slot + b
                if lo_r <= m:
                    segments.append((lo_r, min(m, hi_r), value))
            a = b
            width *= 2

        if old != segments:
            self._unpaint(slot)
            if segments:
                self._queue_paint(segments, 1.0)
                self._painted[slot] = segments
            self.counters.tree_node_updates += 1

    def _unpaint(self, slot: int) -> None:
        old = self._painted[slot]
        if old is not None:
            self._queue_paint(old, -1.0)
            self._painted[slot] = None
            self.counters.tree_node_updates += 1

    def _queue_paint(self, segments: list[tuple[int, int, float]], sign: float) -> None:
        """Record ``sign * value`` over each segment in the difference
        array and widen the pending span to cover it."""
        diff = self._diff
        for lo, hi, value in segments:
            diff[lo] += sign * value
            diff[hi + 1] -= sign * value
            if lo < self._dlo:
                self._dlo = lo
            if hi > self._dhi:
                self._dhi = hi

    def _flush_paint(self) -> tuple[int, int]:
        """Apply the pending difference array to ``_pv``.

        Returns the span it touched (empty, ``lo > hi``, when nothing
        was pending) and leaves the scratch array zeroed.
        """
        lo, hi = self._dlo, self._dhi
        if lo <= hi:
            diff = self._diff
            pv = self._pv
            pv[lo : hi + 1] = map(add, pv[lo : hi + 1], accumulate(diff[lo : hi + 1]))
            diff[lo : hi + 2] = [0.0] * (hi - lo + 2)
            self._dlo, self._dhi = self.m + 1, 0
        return lo, hi

    # ------------------------------------------------------------------
    # Segment tree (leaf buckets of <= ts slots)
    # ------------------------------------------------------------------
    def _is_leaf(self, l: int, r: int) -> bool:
        return r - l + 1 <= self.ts

    def _pull_leaf(self, node: int, l: int, r: int) -> None:
        self.counters.tree_node_updates += 1
        best_self = _NEG_INF
        cost = _INF
        cand = 0
        for slot in range(l, r + 1):
            if self._self_gain[slot] > best_self:
                best_self = self._self_gain[slot]
            if not self.ev.is_executed(slot) and self._cost[slot] != _INF:
                cand += 1
                if self._cost[slot] < cost:
                    cost = self._cost[slot]
        self._agg_self[node] = best_self
        self._agg_cost[node] = cost
        self._agg_cand[node] = cand
        self._agg_paint[node] = max(self._pv[l : r + 1])

    def _pull_inner(self, node: int) -> None:
        self.counters.tree_node_updates += 1
        left, right = 2 * node, 2 * node + 1
        self._agg_self[node] = max(self._agg_self[left], self._agg_self[right])
        self._agg_cost[node] = min(self._agg_cost[left], self._agg_cost[right])
        self._agg_cand[node] = self._agg_cand[left] + self._agg_cand[right]
        self._agg_paint[node] = max(self._agg_paint[left], self._agg_paint[right])

    def _build(self, node: int, l: int, r: int) -> None:
        self.node_count += 1
        if self._is_leaf(l, r):
            self._pull_leaf(node, l, r)
            return
        mid = (l + r) // 2
        self._build(2 * node, l, mid)
        self._build(2 * node + 1, mid + 1, r)
        self._pull_inner(node)

    def refresh_range(self, lo: int, hi: int) -> None:
        """Recompute per-slot state and aggregates for ``[lo, hi]``.

        Call after :meth:`TemporalQualityEvaluator.execute` with the
        affected window; costs of slots in the range are also re-read
        (they change in multi-task scenarios when workers are consumed).
        The aggregates are updated over the window widened to the span
        its repaints touched.
        """
        lo = max(1, lo)
        hi = min(self.m, hi)
        for slot in range(lo, hi + 1):
            cost = self.costs.cost(slot)
            self._cost[slot] = _INF if cost is None else float(cost)
            self._rel[slot] = self.costs.reliability(slot) if cost is not None else 0.0
            self._refresh_slot(slot)
        paint_lo, paint_hi = self._flush_paint()
        self._update(1, 1, self.m, min(lo, paint_lo), max(hi, paint_hi))

    def refresh_slots(self, slots) -> int:
        """Incrementally refresh an arbitrary set of slots.

        The streaming churn path: a worker join/leave/consumption only
        perturbs the offers of the slots it overlaps, so the index is
        repaired by coalescing those slots into maximal contiguous runs
        and calling :meth:`refresh_range` per run — never rebuilding
        the whole tree.  Returns the number of runs refreshed.
        """
        ordered = sorted({s for s in slots if 1 <= s <= self.m})
        if not ordered:
            return 0
        self.counters.index_incremental_refreshes += 1
        runs = 0
        lo = hi = ordered[0]
        for slot in ordered[1:]:
            if slot == hi + 1:
                hi = slot
                continue
            self.refresh_range(lo, hi)
            runs += 1
            lo = hi = slot
        self.refresh_range(lo, hi)
        return runs + 1

    def _update(self, node: int, l: int, r: int, a: int, b: int) -> None:
        if b < l or r < a:
            return
        if self._is_leaf(l, r):
            self._pull_leaf(node, l, r)
            return
        mid = (l + r) // 2
        self._update(2 * node, l, mid, a, b)
        self._update(2 * node + 1, mid + 1, r, a, b)
        self._pull_inner(node)

    # ------------------------------------------------------------------
    # State capture (journal snapshots)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Verbatim index state for an exact snapshot.

        A fresh build over the same evaluator/cost state reproduces
        every aggregate *mathematically*, but the flat paint ``_pv`` and
        its node maxima ``_agg_paint`` carry round-off history
        (paint/unpaint pairs need not cancel bit-for-bit), and recovered
        runs must evolve their op counters byte-identically to
        uninterrupted ones — so the journal copies the arrays instead of
        rebuilding.  The scratch difference array is empty between
        calls and is not captured.
        """
        return {
            "ts": self.ts,
            "m": self.m,
            "cost": list(self._cost),
            "rel": list(self._rel),
            "self_gain": list(self._self_gain),
            "painted": [
                None if segs is None else [list(seg) for seg in segs]
                for segs in self._painted
            ],
            "pv": list(self._pv),
            "agg_self": list(self._agg_self),
            "agg_cost": list(self._agg_cost),
            "agg_cand": list(self._agg_cand),
            "agg_paint": list(self._agg_paint),
            "node_count": self.node_count,
        }

    @classmethod
    def from_state(
        cls,
        evaluator: TemporalQualityEvaluator,
        costs,
        state: dict,
        *,
        counters: OpCounters | None = None,
    ) -> "TreeIndex":
        """Reconstruct an index bit-identical to the captured one.

        Bypasses ``__init__`` entirely: nothing is recomputed and no
        counter is incremented (restoring state is not solver work).
        ``evaluator`` and ``costs`` must themselves be restored to the
        capture point.  A state of another shape (including the retired
        one with a ``paint`` tree) or with a wrong-typed or wrong-sized
        field raises :class:`~repro.errors.JournalCorruptionError`.
        """
        if not isinstance(state, dict):
            raise _corrupt(f"expected an object, got {type(state).__name__}")
        if set(state) != _STATE_KEYS:
            raise _corrupt(
                f"missing {sorted(_STATE_KEYS - set(state))}, "
                f"unknown {sorted(set(state) - _STATE_KEYS)}"
            )
        m = _checked_int(state, "m")
        if m != evaluator.m:
            raise _corrupt(f"m={m} does not match the evaluator's m={evaluator.m}")
        slots, nodes = m + 1, 4 * (m + 1)
        index = cls.__new__(cls)
        index.ev = evaluator
        index.costs = costs
        index.ts = _checked_int(state, "ts")
        index.m = m
        index.counters = counters if counters is not None else evaluator.counters
        index._cost = _checked_list(state, "cost", slots, _NUMBER_TYPES)
        index._rel = _checked_list(state, "rel", slots, _NUMBER_TYPES)
        index._self_gain = _checked_list(state, "self_gain", slots, _NUMBER_TYPES)
        index._painted = _checked_painted(state, slots)
        index._pv = _checked_list(state, "pv", slots, _NUMBER_TYPES)
        index._diff = [0.0] * (m + 2)
        index._dlo = m + 1
        index._dhi = 0
        index._agg_self = _checked_list(state, "agg_self", nodes, _NUMBER_TYPES)
        index._agg_cost = _checked_list(state, "agg_cost", nodes, _NUMBER_TYPES)
        index._agg_cand = _checked_list(state, "agg_cand", nodes, {int})
        index._agg_paint = _checked_list(state, "agg_paint", nodes, _NUMBER_TYPES)
        index.node_count = _checked_int(state, "node_count")
        return index

    # ------------------------------------------------------------------
    # Best-first search
    # ------------------------------------------------------------------
    @property
    def candidate_count(self) -> int:
        """Unexecuted, assignable slots currently indexed."""
        return self._agg_cand[1]

    def _node_upper_bound(self, node: int) -> float:
        self_gain = self._agg_self[node]
        if self_gain == _NEG_INF:
            return _NEG_INF
        min_cost = self._agg_cost[node]
        if min_cost == _INF:
            return _NEG_INF
        gain_ub = self_gain + self._agg_paint[node]
        return gain_ub / max(min_cost, COST_EPSILON)

    def _same_voronoi_cell(self, l: int, r: int) -> bool:
        """The paper's Condition 1: the segment's end slots share one
        k-NN set, hence the whole segment lies in one order-k cell
        (Lemma 8)."""
        if l == r:
            return True
        return tuple(self.ev.knn_of(l)) == tuple(self.ev.knn_of(r))

    def find_best(self, remaining_budget: float) -> BestCandidate | None:
        """Exact argmax of ``gain / cost`` over affordable slots.

        Best-first search with upper-bound pruning; returns ``None``
        when no unexecuted, assignable, affordable slot exists or all
        affordable slots have non-positive gain.
        """
        total_candidates = self._agg_cand[1]
        self.counters.candidates_total += total_candidates
        if total_candidates == 0:
            return None
        heap = LazyMaxHeap()
        root_ub = self._node_upper_bound(1)
        if root_ub == _NEG_INF:
            return None
        heap.push(root_ub, (1, 1, self.m))

        best: BestCandidate | None = None
        evaluated = 0
        while heap:
            popped = heap.pop()
            if popped is None:
                break
            ub, (node, l, r), _ = popped
            self.counters.tree_node_visits += 1
            # A node whose bound ties the incumbent may still hide an
            # equal-heuristic slot with a smaller index, which the
            # deterministic tie-break must prefer.
            if best is not None and ub < best.heuristic * _PRUNE_FACTOR:
                break
            if self._is_leaf(l, r) or self._same_voronoi_cell(l, r):
                for slot in range(l, r + 1):
                    if self.ev.is_executed(slot):
                        continue
                    cost = self._cost[slot]
                    if cost == _INF or cost > remaining_budget + 1e-12:
                        continue
                    gain = self.ev.gain_if_executed(slot, self._rel[slot])
                    evaluated += 1
                    if gain <= 0.0:
                        continue
                    heur = gain / max(cost, COST_EPSILON)
                    if (
                        best is None
                        or heur > best.heuristic
                        or (heur == best.heuristic and slot < best.slot)
                    ):
                        best = BestCandidate(slot, gain, cost, heur)
                continue
            mid = (l + r) // 2
            for child, cl, cr in ((2 * node, l, mid), (2 * node + 1, mid + 1, r)):
                child_ub = self._node_upper_bound(child)
                if child_ub == _NEG_INF:
                    continue
                if best is not None and child_ub < best.heuristic * _PRUNE_FACTOR:
                    self.counters.tree_node_visits += 1
                    continue
                heap.push(child_ub, (child, cl, cr))
        self.counters.candidates_pruned += max(total_candidates - evaluated, 0)
        return best


# ----------------------------------------------------------------------
# Snapshot field checks
# ----------------------------------------------------------------------
_STATE_KEYS = frozenset(
    "ts m cost rel self_gain painted pv agg_self agg_cost agg_cand agg_paint node_count".split()
)
#: JSON-decoded types a float field admits (a JSON bool never does).
_NUMBER_TYPES = {int, float}


def _corrupt(message: str) -> JournalCorruptionError:
    return JournalCorruptionError(f"tree index state {message}")


def _checked_int(state: dict, key: str) -> int:
    value = state[key]
    if type(value) is not int:
        raise _corrupt(f"field {key!r} must be an int, got {value!r}")
    return value


def _checked_list(state: dict, key: str, length: int, types: set) -> list:
    """A list of ``length`` values of ``types``, as floats unless ints."""
    values = state[key]
    if type(values) is not list or len(values) != length:
        raise _corrupt(f"field {key!r} must be a list of {length} values")
    if not set(map(type, values)) <= types:
        raise _corrupt(f"field {key!r} holds a value of the wrong type")
    return list(values) if types == {int} else [float(v) for v in values]


def _checked_painted(state: dict, length: int) -> list:
    # Segment tuples were listified for JSON; the refresh path compares
    # them against freshly built tuples, so restore the exact tuple shape.
    raw = state["painted"]
    if type(raw) is not list or len(raw) != length:
        raise _corrupt(f"field 'painted' must be a list of {length} entries")
    painted: list[list[tuple[int, int, float]] | None] = []
    for segs in raw:
        if segs is None:
            painted.append(None)
            continue
        if type(segs) is not list:
            raise _corrupt("field 'painted' holds a non-list entry")
        restored = []
        for seg in segs:
            if (
                type(seg) is not list
                or len(seg) != 3
                or type(seg[0]) is not int
                or type(seg[1]) is not int
                or type(seg[2]) not in _NUMBER_TYPES
            ):
                raise _corrupt(f"field 'painted' holds a malformed segment {seg!r}")
            restored.append((seg[0], seg[1], float(seg[2])))
        painted.append(restored)
    return painted
