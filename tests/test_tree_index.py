"""Tests for the tree-structured order-k Voronoi index (Approx*'s engine).

The central property: :meth:`TreeIndex.find_best` returns exactly the
same slot as exhaustive enumeration — the upper bounds are sound and
ties break identically — across random executed sets, costs, and
budgets.
"""

from __future__ import annotations

import copy
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluator import TemporalQualityEvaluator
from repro.core.tree_index import COST_EPSILON, TreeIndex
from repro.errors import ConfigurationError, JournalCorruptionError


class FakeCosts:
    """Minimal cost table: slot -> cost (None = unassignable)."""

    def __init__(self, costs: dict[int, float], reliabilities: dict[int, float] | None = None):
        self._costs = costs
        self._rels = reliabilities or {}

    def cost(self, slot):
        return self._costs.get(slot)

    def reliability(self, slot):
        return self._rels.get(slot, 1.0)


def brute_force_best(ev, costs, remaining):
    """Reference argmax of gain/cost with the library tie-break."""
    best = None
    for slot in range(1, ev.m + 1):
        if ev.is_executed(slot):
            continue
        cost = costs.cost(slot)
        if cost is None or cost > remaining + 1e-12:
            continue
        gain = ev.gain_if_executed(slot, costs.reliability(slot))
        if gain <= 0.0:
            continue
        heur = gain / max(cost, COST_EPSILON)
        if best is None or heur > best[3] or (heur == best[3] and slot < best[0]):
            best = (slot, gain, cost, heur)
    return best


class TestConstruction:
    def test_rejects_bad_ts(self):
        ev = TemporalQualityEvaluator(10, 2)
        with pytest.raises(ConfigurationError):
            TreeIndex(ev, FakeCosts({}), ts=0)

    def test_candidate_count(self):
        ev = TemporalQualityEvaluator(10, 2)
        index = TreeIndex(ev, FakeCosts({s: 1.0 for s in range(1, 11)}))
        assert index.candidate_count == 10
        window = ev.affected_window(4)
        ev.execute(4)
        index.refresh_range(*window)
        assert index.candidate_count == 9

    def test_unassignable_slots_excluded(self):
        ev = TemporalQualityEvaluator(10, 2)
        index = TreeIndex(ev, FakeCosts({1: 1.0}))
        assert index.candidate_count == 1

    def test_node_count_decreases_with_ts(self):
        ev = TemporalQualityEvaluator(64, 2)
        costs = FakeCosts({s: 1.0 for s in range(1, 65)})
        small = TreeIndex(ev, costs, ts=2).node_count
        big = TreeIndex(ev, costs, ts=16).node_count
        assert big < small


class TestFindBest:
    def test_empty_index_returns_none(self):
        ev = TemporalQualityEvaluator(10, 2)
        index = TreeIndex(ev, FakeCosts({}))
        assert index.find_best(100.0) is None

    def test_budget_excludes_expensive_slots(self):
        ev = TemporalQualityEvaluator(11, 2)
        costs = FakeCosts({6: 50.0, 1: 1.0})
        index = TreeIndex(ev, costs)
        best = index.find_best(10.0)
        assert best.slot == 1

    def test_no_affordable_returns_none(self):
        ev = TemporalQualityEvaluator(10, 2)
        index = TreeIndex(ev, FakeCosts({5: 100.0}))
        assert index.find_best(1.0) is None

    def test_matches_brute_force_on_empty_set(self):
        ev = TemporalQualityEvaluator(20, 3)
        costs = FakeCosts({s: float(s) for s in range(1, 21)})
        index = TreeIndex(ev, costs)
        best = index.find_best(1000.0)
        expected = brute_force_best(ev, costs, 1000.0)
        assert (best.slot, best.heuristic) == (expected[0], pytest.approx(expected[3]))

    @settings(deadline=None, max_examples=50)
    @given(
        m=st.integers(8, 40),
        executed=st.sets(st.integers(1, 40), max_size=10),
        seed=st.integers(0, 10_000),
        ts=st.sampled_from([1, 2, 4, 8]),
        k=st.integers(1, 4),
    )
    def test_matches_brute_force_random(self, m, executed, seed, ts, k):
        import numpy as np

        rng = np.random.default_rng(seed)
        executed = {e for e in executed if e <= m}
        cost_map = {
            s: round(float(rng.uniform(0.5, 10.0)), 3)
            for s in range(1, m + 1)
            if rng.uniform() > 0.1  # ~10% unassignable
        }
        costs = FakeCosts(cost_map)
        ev = TemporalQualityEvaluator(m, k)
        index = TreeIndex(ev, costs, ts=ts)
        for e in sorted(executed):
            window = ev.affected_window(e)
            ev.execute(e)
            index.refresh_range(*window)
        remaining = float(rng.uniform(1.0, 15.0))
        got = index.find_best(remaining)
        expected = brute_force_best(ev, costs, remaining)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.slot == expected[0]
            assert got.gain == pytest.approx(expected[1])
            assert got.heuristic == pytest.approx(expected[3])

    def test_with_reliabilities(self):
        ev = TemporalQualityEvaluator(15, 2)
        cost_map = {s: 1.0 + s * 0.1 for s in range(1, 16)}
        rels = {s: 0.5 + 0.03 * s for s in range(1, 16)}
        costs = FakeCosts(cost_map, rels)
        index = TreeIndex(ev, costs)
        got = index.find_best(100.0)
        expected = brute_force_best(ev, costs, 100.0)
        assert got.slot == expected[0]


class TestIncrementalConsistency:
    def test_greedy_sequence_matches_brute_force(self):
        """A full greedy run driven by the index matches enumeration."""
        ev_a = TemporalQualityEvaluator(30, 3)
        ev_b = TemporalQualityEvaluator(30, 3)
        cost_map = {s: 1.0 + (s * 7 % 5) for s in range(1, 31)}
        costs = FakeCosts(cost_map)
        index = TreeIndex(ev_a, costs, ts=4)
        for _ in range(12):
            got = index.find_best(1e9)
            expected = brute_force_best(ev_b, costs, 1e9)
            if expected is None:
                assert got is None
                break
            assert got.slot == expected[0]
            window = ev_a.affected_window(got.slot)
            ev_a.execute(got.slot)
            index.refresh_range(*window)
            ev_b.execute(expected[0])

    def test_pruning_counters_accumulate(self):
        ev = TemporalQualityEvaluator(60, 3)
        costs = FakeCosts({s: 1.0 for s in range(1, 61)})
        index = TreeIndex(ev, costs, ts=4)
        for _ in range(10):
            best = index.find_best(1e9)
            window = ev.affected_window(best.slot)
            ev.execute(best.slot)
            index.refresh_range(*window)
        counters = index.counters
        assert counters.candidates_total > 0
        assert 0.0 <= counters.pruning_ratio <= 1.0

    def test_refresh_range_reads_cost_changes(self):
        """Cost providers mutate in multi-task runs; refresh re-reads."""
        ev = TemporalQualityEvaluator(10, 2)
        cost_map = {s: 1.0 for s in range(1, 11)}
        costs = FakeCosts(cost_map)
        index = TreeIndex(ev, costs)
        cost_map[3] = 0.01  # slot 3 becomes extremely cheap
        index.refresh_range(3, 3)
        assert index.find_best(1e9).slot == 3


def _tie_costs(m):
    """The stateful test's cost table: a five-step cost cycle."""
    return FakeCosts({slot: 1.0 + (slot % 5) * 0.7 for slot in range(1, m + 1)})


def _execute(ev, index, slot):
    window = ev.affected_window(slot)
    ev.execute(slot)
    index.refresh_range(*window)


class TestTies:
    """An upper bound may round an ulp below a slot's exact heuristic;
    that must never prune an equal-heuristic slot with a smaller index."""

    def test_exact_tie_prefers_smaller_slot(self):
        ev = TemporalQualityEvaluator(24, 2)
        costs = _tie_costs(24)
        index = TreeIndex(ev, costs, ts=3)
        for slot in (1, 3, 8, 9, 11, 12, 17, 19, 21, 23):
            _execute(ev, index, slot)
        expected = brute_force_best(ev, costs, 1e9)
        # Slots 5 and 15 tie exactly; the tie-break prefers 5.
        assert expected[0] == 5
        assert ev.gain_if_executed(15) / costs.cost(15) == expected[3]
        got = index.find_best(1e9)
        assert (got.slot, got.heuristic) == (5, expected[3])

    def test_seeded_sweep_matches_brute_force(self):
        """20,000 execution sets: every prefix of random execution
        orders, each checked against enumeration."""
        rng = random.Random(0)
        sets = mismatches = 0
        while sets < 20_000:
            ev = TemporalQualityEvaluator(24, 2)
            costs = _tie_costs(24)
            index = TreeIndex(ev, costs, ts=3)
            for slot in rng.sample(range(1, 25), 23):
                _execute(ev, index, slot)
                got = index.find_best(1e9)
                expected = brute_force_best(ev, costs, 1e9)
                sets += 1
                if (None if got is None else got.slot) != (
                    None if expected is None else expected[0]
                ):
                    mismatches += 1
        assert mismatches == 0


class TestSnapshotState:
    def _index(self):
        ev = TemporalQualityEvaluator(20, 2)
        costs = FakeCosts({s: 1.0 + s % 3 for s in range(1, 21)})
        index = TreeIndex(ev, costs, ts=3)
        for slot in (4, 11, 17):
            _execute(ev, index, slot)
        return ev, costs, index

    def test_round_trip_is_exact(self):
        ev, costs, index = self._index()
        state = json.loads(json.dumps(index.to_state()))
        restored = TreeIndex.from_state(ev, costs, state)
        assert restored.to_state() == index.to_state()
        _execute(ev, index, 8)
        restored.refresh_range(*ev.affected_window(8))
        assert restored.to_state() == index.to_state()
        assert restored.find_best(1e9) == index.find_best(1e9)

    def test_old_paint_tree_shape_is_rejected(self):
        ev, costs, index = self._index()
        state = index.to_state()
        del state["pv"], state["agg_paint"]
        state["paint"] = {"n": 20, "max": [0.0] * 80, "lazy": [0.0] * 80}
        with pytest.raises(JournalCorruptionError, match="paint"):
            TreeIndex.from_state(ev, costs, state)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda st: st.pop("agg_cand"),
            lambda st: st.update(extra=1),
            lambda st: st.update(m="20"),
            lambda st: st.update(m=21),
            lambda st: st.update(ts=None),
            lambda st: st["pv"].pop(),
            lambda st: st["pv"].__setitem__(3, "0.5"),
            lambda st: st["agg_cand"].__setitem__(1, 2.0),
            lambda st: st["agg_self"].__setitem__(1, True),
            lambda st: st.update(cost={"1": 1.0}),
            lambda st: st["painted"].__setitem__(5, 7),
            lambda st: st["painted"].__setitem__(5, [[1, 2]]),
            lambda st: st["painted"].__setitem__(5, [[1.0, 2, 0.1]]),
        ],
    )
    def test_malformed_state_raises_typed_error(self, mutate):
        ev, costs, index = self._index()
        state = copy.deepcopy(index.to_state())
        mutate(state)
        with pytest.raises(JournalCorruptionError):
            TreeIndex.from_state(ev, costs, state)

    def test_non_object_state_raises_typed_error(self):
        ev, costs, _ = self._index()
        with pytest.raises(JournalCorruptionError):
            TreeIndex.from_state(ev, costs, [1, 2, 3])

