"""Stateful (model-based) property tests with hypothesis.

Random interleavings of operations against simple reference models:

* the incremental evaluator + tree index pair, checked against
  from-scratch quality recomputation, brute-force argmax, and the
  painted segments the index's flat paint must sum to;
* the grid index under add/remove churn, checked against a dict.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from hypothesis import strategies as st

from repro.core.evaluator import TemporalQualityEvaluator
from repro.core.quality import task_quality
from repro.core.tree_index import COST_EPSILON, TreeIndex
from repro.geo.bbox import BoundingBox
from repro.geo.grid import GridIndex
from repro.geo.point import Point

_M = 24


class _Costs:
    """Mutable cost table driven by the state machine."""

    def __init__(self, m):
        self.table = {slot: 1.0 + (slot % 5) * 0.7 for slot in range(1, m + 1)}

    def cost(self, slot):
        return self.table.get(slot)

    def reliability(self, slot):
        return 1.0


class EvaluatorIndexMachine(RuleBasedStateMachine):
    """Drive evaluator + index through executions and cost changes."""

    def __init__(self):
        super().__init__()
        self.costs = _Costs(_M)
        self.ev = TemporalQualityEvaluator(_M, 2)
        self.index = TreeIndex(self.ev, self.costs, ts=3)
        self.executed: dict[int, float] = {}
        # Largest value ever painted: the scale of the round-off that
        # paint/unpaint pairs may leave behind in the flat sums.
        self.paint_scale = 0.0
        self._note_paint_scale()

    def _note_paint_scale(self):
        for segs in self.index._painted:
            for _, _, value in segs or ():
                self.paint_scale = max(self.paint_scale, value)

    @initialize(offsets=st.sets(st.integers(1, 5)))
    def execute_periodic(self, offsets):
        """Start from slots executed with the cost cycle's period: slots
        a period apart then share cost and neighbourhood, so exact
        heuristic ties (and bounds an ulp off them) are common."""
        for offset in sorted(offsets):
            for slot in range(offset, _M + 1, 5):
                self.execute_slot(slot)

    @rule(slot=st.integers(1, _M))
    def execute_slot(self, slot):
        if slot in self.executed or self.costs.cost(slot) is None:
            return
        window = self.ev.affected_window(slot)
        self.ev.execute(slot)
        self.index.refresh_range(*window)
        self._note_paint_scale()
        self.executed[slot] = 1.0

    @rule(slot=st.integers(1, _M), new_cost=st.floats(0.1, 9.0))
    def change_cost(self, slot, new_cost):
        if slot not in self.costs.table:
            return
        self.costs.table[slot] = new_cost
        self.index.refresh_range(slot, slot)
        self._note_paint_scale()

    @rule(remaining=st.floats(0.5, 20.0))
    def find_best_matches_brute_force(self, remaining):
        got = self.index.find_best(remaining)
        best = None
        for slot in range(1, _M + 1):
            if self.ev.is_executed(slot):
                continue
            cost = self.costs.cost(slot)
            if cost is None or cost > remaining + 1e-12:
                continue
            gain = self.ev.gain_if_executed(slot)
            if gain <= 0.0:
                continue
            heur = gain / max(cost, COST_EPSILON)
            if best is None or heur > best[1] or (heur == best[1] and slot < best[0]):
                best = (slot, heur)
        if best is None:
            assert got is None
        else:
            assert got is not None
            assert got.slot == best[0]
            assert got.heuristic == pytest.approx(best[1])

    @invariant()
    def quality_matches_reference(self):
        assert self.ev.quality == pytest.approx(task_quality(_M, 2, self.executed))

    @invariant()
    def flat_paint_matches_segments(self):
        index = self.index
        expected = [0.0] * (_M + 1)
        for segs in index._painted:
            for lo, hi, value in segs or ():
                for slot in range(lo, hi + 1):
                    expected[slot] += value
        for slot in range(1, _M + 1):
            assert index._pv[slot] == pytest.approx(
                expected[slot], rel=1e-12, abs=1e-12 * self.paint_scale
            )
        stack = [(1, 1, _M)]
        while stack:
            node, l, r = stack.pop()
            assert index._agg_paint[node] == max(index._pv[l : r + 1])
            if not index._is_leaf(l, r):
                mid = (l + r) // 2
                stack += [(2 * node, l, mid), (2 * node + 1, mid + 1, r)]


class GridIndexMachine(RuleBasedStateMachine):
    """Grid index vs a plain dict under add/remove churn."""

    def __init__(self):
        super().__init__()
        self.bbox = BoundingBox.square(50.0)
        self.index = GridIndex(self.bbox)
        self.model: dict[int, Point] = {}

    @rule(key=st.integers(0, 30), x=st.floats(0, 50), y=st.floats(0, 50))
    def add(self, key, x, y):
        point = Point(x, y)
        self.index.add(key, point)
        self.model[key] = point

    @rule(key=st.integers(0, 30))
    def remove(self, key):
        if key in self.model:
            self.index.remove(key)
            del self.model[key]
        else:
            with pytest.raises(KeyError):
                self.index.remove(key)

    @rule(x=st.floats(0, 50), y=st.floats(0, 50), k=st.integers(1, 4))
    def knn_matches_model(self, x, y, k):
        query = Point(x, y)
        got = [d for _, d in self.index.k_nearest(query, k)]
        expected = sorted(query.distance_to(p) for p in self.model.values())[:k]
        assert got == pytest.approx(expected)

    @invariant()
    def sizes_agree(self):
        assert len(self.index) == len(self.model)


TestEvaluatorIndexMachine = EvaluatorIndexMachine.TestCase
TestEvaluatorIndexMachine.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None
)
TestGridIndexMachine = GridIndexMachine.TestCase
TestGridIndexMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
