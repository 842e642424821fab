"""Unit and property tests for repro.util.sorted_slots."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.util.sorted_slots import SortedSlots


class TestBasics:
    def test_empty(self):
        s = SortedSlots()
        assert len(s) == 0
        assert 5 not in s
        assert s.nearest(5) is None
        assert s.k_nearest(5, 3) == []

    def test_construction_dedupes_and_sorts(self):
        s = SortedSlots([5, 1, 5, 3, 1])
        assert s.as_list() == [1, 3, 5]

    def test_add_returns_novelty(self):
        s = SortedSlots()
        assert s.add(4) is True
        assert s.add(4) is False
        assert s.as_list() == [4]

    def test_remove(self):
        s = SortedSlots([1, 2, 3])
        s.remove(2)
        assert s.as_list() == [1, 3]

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            SortedSlots([1]).remove(9)

    def test_contains(self):
        s = SortedSlots([2, 4])
        assert 2 in s and 4 in s and 3 not in s

    def test_iteration_is_sorted(self):
        assert list(SortedSlots([9, 1, 5])) == [1, 5, 9]


class TestKNearest:
    def test_paper_example(self):
        # Fig. 2: executed {2, 4}; 2-NN of slot 1 is {2, 4}.
        s = SortedSlots([2, 4])
        assert sorted(s.k_nearest(1, 2)) == [2, 4]

    def test_tie_prefers_smaller_index(self):
        s = SortedSlots([3, 7])
        # Slot 5 is at distance 2 from both; the smaller index wins first.
        assert s.k_nearest(5, 1) == [3]
        assert s.k_nearest(5, 2) == [3, 7]

    def test_exclude(self):
        s = SortedSlots([3, 5, 7])
        assert s.k_nearest(5, 2, exclude=5) == [3, 7]

    def test_k_larger_than_population(self):
        s = SortedSlots([10])
        assert s.k_nearest(4, 5) == [10]

    def test_k_zero(self):
        assert SortedSlots([1, 2]).k_nearest(1, 0) == []

    def test_results_sorted_by_distance(self):
        s = SortedSlots([1, 4, 6, 9])
        result = s.k_nearest(5, 4)
        distances = [abs(e - 5) for e in result]
        assert distances == sorted(distances)


class TestDirectionalQueries:
    def test_kth_left(self):
        s = SortedSlots([2, 5, 8])
        assert s.kth_left(9, 1) == 8
        assert s.kth_left(9, 3) == 2
        assert s.kth_left(9, 4) is None
        assert s.kth_left(2, 1) is None

    def test_kth_right(self):
        s = SortedSlots([2, 5, 8])
        assert s.kth_right(1, 1) == 2
        assert s.kth_right(2, 1) == 5  # strictly above
        assert s.kth_right(8, 1) is None

    def test_count_below(self):
        s = SortedSlots([2, 5, 8])
        assert s.count_below(5) == 1
        assert s.count_below(9) == 3
        assert s.count_below(2) == 0

    def test_count_in(self):
        s = SortedSlots([2, 5, 8])
        assert s.count_in(2, 8) == 3
        assert s.count_in(3, 7) == 1
        assert s.count_in(6, 4) == 0


@given(
    slots=st.lists(st.integers(1, 60), max_size=25),
    query=st.integers(1, 60),
    k=st.integers(1, 6),
)
def test_k_nearest_matches_brute_force(slots, query, k):
    """The bisect-based query agrees with an exhaustive sort."""
    s = SortedSlots(slots)
    got = s.k_nearest(query, k)
    expected = sorted(set(slots), key=lambda e: (abs(e - query), e))[:k]
    assert got == expected


@given(
    slots=st.lists(st.integers(1, 60), max_size=25),
    query=st.integers(1, 60),
    extra=st.integers(1, 60),
    k=st.integers(1, 6),
)
def test_k_nearest_with_matches_brute_force(slots, query, extra, k):
    """Merging one unstored slot in gives the k-NN of the union."""
    stored = set(slots) - {extra}
    s = SortedSlots(stored)
    got = s.k_nearest_with(query, k, extra)
    expected = sorted(stored | {extra}, key=lambda e: (abs(e - query), e))[:k]
    assert got == expected


@given(
    slots=st.lists(st.integers(1, 60), min_size=1, max_size=25),
    query=st.integers(1, 60),
)
def test_kth_left_right_match_brute_force(slots, query):
    s = SortedSlots(slots)
    uniq = sorted(set(slots))
    below = [e for e in uniq if e < query]
    above = [e for e in uniq if e > query]
    for k in range(1, 5):
        assert s.kth_left(query, k) == (below[-k] if len(below) >= k else None)
        assert s.kth_right(query, k) == (above[k - 1] if len(above) >= k else None)
