"""Backend parity, lazy-search identity, and kernel regression tests.

The performance layer's contract is strict: the NumPy kernels and the
CELF lazy argmax must be *invisible* in every output — identical plans,
probabilities equal to float round-off, and identical operation counts
for equivalent logical work.  These tests enforce that contract on
randomized instances.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluator import TemporalQualityEvaluator
from repro.core.greedy import IndexedSingleTaskGreedy, SingleTaskGreedy
from repro.core.instrumentation import OpCounters
from repro.core.kernels import QualityKernel, get_kernel, phi_array
from repro.core.quality import entropy_term, task_quality
from repro.engine.costs import SingleTaskCostTable
from repro.errors import ConfigurationError
from repro.workloads.scenario import ScenarioConfig, build_scenario


# ----------------------------------------------------------------------
# entropy_term round-off clamp (regression)
# ----------------------------------------------------------------------
def test_entropy_term_clamps_float_roundoff():
    # Vectorized accumulation can land an epsilon outside [0, 1];
    # those values are round-off, not caller errors.
    assert entropy_term(-1e-16) == 0.0
    assert entropy_term(0.0) == 0.0
    assert entropy_term(1.0) == 0.0
    assert entropy_term(1.0 + 1e-16) == 0.0
    assert entropy_term(0.5) == pytest.approx(0.5)


def test_entropy_term_still_rejects_real_violations():
    with pytest.raises(ConfigurationError):
        entropy_term(-1e-9)
    with pytest.raises(ConfigurationError):
        entropy_term(1.0 + 1e-9)


def test_phi_array_matches_scalar_and_clamps():
    p = np.array([0.0, 1e-300, 0.25, 1.0 / 3.0, 1.0, -1e-16, 1.0 + 1e-16])
    out = phi_array(p)
    for value, expected_p in zip(out, p):
        assert value == pytest.approx(entropy_term(float(expected_p)), abs=1e-15)
    with pytest.raises(ConfigurationError):
        phi_array(np.array([0.5, -1e-9]))


# ----------------------------------------------------------------------
# Phi table bitwise consistency
# ----------------------------------------------------------------------
def test_phi_table_bitwise_equals_scalar_oracle():
    # The plan-identity contract: unit-reliability table lookups are
    # bitwise identical to the scalar entropy_term, so exact ties
    # stay exact across backends.
    kernel = QualityKernel(40, 3)
    grid = np.arange(3 * 40 + 1, dtype=np.float64)
    lookup = kernel.phi_of_totals(grid, unit=True)
    for t, value in enumerate(lookup):
        assert float(value) == entropy_term(t / kernel.denom)
    assert kernel.phi_executed(1.0) == entropy_term(1.0 / 40)
    # The vectorized non-unit path agrees to float round-off.
    direct = kernel.phi_of_totals(grid, unit=False)
    np.testing.assert_allclose(direct, lookup, rtol=0, atol=1e-15)


def test_get_kernel_is_shared_per_shape():
    assert get_kernel(50, 3) is get_kernel(50, 3)
    assert get_kernel(50, 3) is not get_kernel(50, 4)


# ----------------------------------------------------------------------
# Evaluator backend parity (property test)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("unit_reliability", [True, False])
def test_backend_parity_randomized(unit_reliability):
    rng = random.Random(42 if unit_reliability else 43)
    for _ in range(15):
        m = rng.randint(5, 50)
        k = rng.randint(1, 5)
        c_py, c_np = OpCounters(), OpCounters()
        ev_py = TemporalQualityEvaluator(m, k, counters=c_py)
        ev_np = TemporalQualityEvaluator(m, k, counters=c_np, backend="numpy")
        for slot in rng.sample(range(1, m + 1), rng.randint(1, m - 1)):
            lam = 1.0 if unit_reliability else round(rng.uniform(0.1, 1.0), 3)
            free = [s for s in range(1, m + 1) if not ev_py.is_executed(s)]
            for cand in rng.sample(free, min(3, len(free))):
                g_local = ev_py.gain_if_executed(cand, lam)
                assert ev_np.gain_if_executed(cand, lam) == pytest.approx(
                    g_local, abs=1e-12
                )
                g_full = ev_py.gain_full_rescan(cand, lam)
                assert ev_np.gain_full_rescan(cand, lam) == pytest.approx(
                    g_full, abs=1e-12
                )
                # Locality: both strategies agree on the same backend.
                assert g_full == pytest.approx(g_local, abs=1e-12)
            ev_py.execute(slot, lam)
            ev_np.execute(slot, lam)
            for j in range(1, m + 1):
                assert ev_np.p(j) == pytest.approx(ev_py.p(j), abs=1e-12)
            assert ev_np.quality == pytest.approx(ev_py.quality, abs=1e-10)
        # Counter parity: identical logical work, identical counts
        # (asserted before the oracle calls below, which count too).
        assert (c_np.gain_evaluations, c_np.slot_evaluations, c_np.knn_queries) == (
            c_py.gain_evaluations,
            c_py.slot_evaluations,
            c_py.knn_queries,
        )
        # The incremental quality matches the from-scratch oracle.
        executed = {s: ev_py._reliability[s] for s in ev_py.executed_slots}
        assert ev_np.quality == pytest.approx(task_quality(m, k, executed), abs=1e-9)
        assert ev_np.recompute_quality() == pytest.approx(ev_np.quality, abs=1e-9)


def test_backend_parity_execute_change_sets():
    rng = random.Random(7)
    ev_py = TemporalQualityEvaluator(30, 3)
    ev_np = TemporalQualityEvaluator(30, 3, backend="numpy")
    for slot in rng.sample(range(1, 31), 12):
        ch_py = ev_py.execute(slot)
        ch_np = ev_np.execute(slot)
        assert sorted(c.slot for c in ch_py) == sorted(c.slot for c in ch_np)
        by_slot = {c.slot: c for c in ch_np}
        for c in ch_py:
            assert by_slot[c.slot].new_p == pytest.approx(c.new_p, abs=1e-12)


def test_numpy_backend_rejects_unknown_name():
    with pytest.raises(ConfigurationError):
        TemporalQualityEvaluator(10, 3, backend="fortran")


# ----------------------------------------------------------------------
# Slice-and-key gain vs the retired gather-and-merge rule (property)
# ----------------------------------------------------------------------
def _retired_merge_gain(ev, slot, reliability):
    """The numpy gain as the retired gather path computed it.

    Gathers the unexecuted window slots, finds each one's k-th
    neighbour by brute force, and applies the Eq.-6 merge rule
    ``(D < dfar) | (D == dfar & slot < efar)`` over the evaluator's
    stored totals and phi values — the rule the per-slot merge keys
    replaced.  Reads evaluator state only; counts nothing.
    """
    m, k = ev.m, ev.k
    kernel = get_kernel(m, k)
    executed = dict(ev._reliability)
    lo, hi = ev.affected_window(slot)
    us = np.array(
        [u for u in range(lo, hi + 1) if u != slot and u not in executed],
        dtype=np.int64,
    )
    delta = kernel.phi_executed(reliability) - float(ev._phi[slot])
    if us.size == 0:
        return delta
    dfar = np.full(us.size, m + 2, dtype=np.int64)  # fewer than k: never evicts
    efar = np.zeros(us.size, dtype=np.int64)
    lamfar = np.zeros(us.size, dtype=np.float64)
    for i, u in enumerate(us.tolist()):
        near = sorted(executed, key=lambda e: (abs(e - u), e))[:k]
        if len(near) == k:
            dfar[i], efar[i], lamfar[i] = abs(near[-1] - u), near[-1], executed[near[-1]]
    D = np.abs(us - slot)
    enters = (D < dfar) | ((D == dfar) & (slot < efar))
    evicted = np.where(dfar <= m, lamfar * (m - dfar), 0.0)
    new_totals = ev._totals[us] + np.where(enters, reliability * (m - D) - evicted, 0.0)
    unit = all(lam == 1.0 for lam in executed.values()) and reliability == 1.0
    terms = np.empty(us.size + 1, dtype=np.float64)
    terms[0] = delta
    terms[1:] = kernel.phi_of_totals(new_totals, unit=unit) - ev._phi[us]
    return float(np.cumsum(terms)[-1])


@st.composite
def _kernel_cases(draw):
    m = draw(st.integers(3, 60))
    k = draw(st.integers(1, 6))
    order = draw(st.permutations(range(1, m + 1)))
    steps = draw(st.integers(0, m - 1))
    unit = draw(st.booleans())
    if unit:
        lams = [1.0] * steps
    else:
        lams = draw(
            st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0),
                min_size=steps,
                max_size=steps,
            )
        )
    cand_lam = 1.0 if unit else draw(st.floats(0.0, 1.0))
    return m, k, list(order[:steps]), lams, unit, cand_lam


@settings(deadline=None, max_examples=150)
@given(case=_kernel_cases())
def test_numpy_gain_matches_retired_merge_rule_and_python(case):
    m, k, order, lams, unit, cand_lam = case
    c_py, c_np = OpCounters(), OpCounters()
    ev_py = TemporalQualityEvaluator(m, k, counters=c_py)
    ev_np = TemporalQualityEvaluator(m, k, counters=c_np, backend="numpy")
    for slot, lam in zip(order, lams):
        assert ev_np.execute(slot, lam) == ev_py.execute(slot, lam)
    assert asdict(c_np) == asdict(c_py)
    for cand in range(1, m + 1):
        if ev_py.is_executed(cand):
            continue
        oracle = _retired_merge_gain(ev_np, cand, cand_lam)
        before_py, before_np = asdict(c_py), asdict(c_np)
        g_np = ev_np.gain_if_executed(cand, cand_lam)
        g_py = ev_py.gain_if_executed(cand, cand_lam)
        assert g_np == oracle
        if unit:
            assert g_np == g_py
        else:
            assert g_np == pytest.approx(g_py, abs=1e-12)
        delta_py = {f: v - before_py[f] for f, v in asdict(c_py).items()}
        delta_np = {f: v - before_np[f] for f, v in asdict(c_np).items()}
        assert delta_np == delta_py


@settings(deadline=None, max_examples=150)
@given(case=_kernel_cases())
def test_numpy_farthest_neighbor_matches_python(case):
    m, k, order, lams, _, _ = case
    ev_py = TemporalQualityEvaluator(m, k)
    ev_np = TemporalQualityEvaluator(m, k, backend="numpy")
    for slot, lam in zip(order, lams):
        ev_py.execute(slot, lam)
        ev_np.execute(slot, lam)
        for s in range(1, m + 1):
            got = ev_np.farthest_neighbor(s)
            assert got == ev_py.farthest_neighbor(s)
            if got is not None:
                assert type(got[0]) is int and type(got[1]) is float


# ----------------------------------------------------------------------
# Gains are non-increasing under unit reliability (the CELF premise)
# ----------------------------------------------------------------------
def test_unit_reliability_gains_are_non_increasing():
    rng = random.Random(5)
    for _ in range(5):
        m = rng.randint(10, 40)
        k = rng.randint(1, 4)
        ev = TemporalQualityEvaluator(m, k)
        watched = rng.sample(range(1, m + 1), 5)
        last = {s: math.inf for s in watched}
        for slot in rng.sample(range(1, m + 1), m // 2):
            for s in watched:
                if ev.is_executed(s) or s == slot:
                    continue
                gain = ev.gain_if_executed(s)
                assert gain <= last[s] + 1e-12, (m, k, s)
                last[s] = gain
            if not ev.is_executed(slot):
                ev.execute(slot)


# ----------------------------------------------------------------------
# Plan identity across every solver variant
# ----------------------------------------------------------------------
def _solver_variants(task, costs, budget):
    return {
        "python-enum-full": lambda c: SingleTaskGreedy(
            task, costs, budget=budget, strategy="full", counters=c
        ),
        "python-enum-local": lambda c: SingleTaskGreedy(
            task, costs, budget=budget, strategy="local", counters=c
        ),
        "python-lazy": lambda c: SingleTaskGreedy(
            task, costs, budget=budget, strategy="local", search="lazy", counters=c
        ),
        "numpy-enum-local": lambda c: SingleTaskGreedy(
            task, costs, budget=budget, strategy="local", backend="numpy", counters=c
        ),
        "numpy-lazy": lambda c: SingleTaskGreedy(
            task, costs, budget=budget, strategy="local", search="lazy",
            backend="numpy", counters=c,
        ),
        "indexed-python": lambda c: IndexedSingleTaskGreedy(
            task, costs, budget=budget, counters=c
        ),
        "indexed-numpy": lambda c: IndexedSingleTaskGreedy(
            task, costs, budget=budget, backend="numpy", counters=c
        ),
    }


@pytest.mark.parametrize("seed,reliability_range", [
    (3, (1.0, 1.0)),
    (9, (1.0, 1.0)),
    (17, (1.0, 1.0)),
    (3, (0.3, 1.0)),
    (9, (0.5, 1.0)),
])
def test_all_variants_identical_plans(seed, reliability_range):
    scenario = build_scenario(
        ScenarioConfig(
            num_tasks=1,
            num_slots=40,
            num_workers=150,
            seed=seed,
            reliability_range=reliability_range,
        )
    )
    task = scenario.single_task
    costs = SingleTaskCostTable(task, scenario.fresh_registry())
    signatures = {}
    qualities = {}
    for name, factory in _solver_variants(task, costs, scenario.budget).items():
        result = factory(OpCounters()).solve()
        signatures[name] = result.assignment.plan_signature()
        qualities[name] = result.quality
    reference = signatures["python-enum-full"]
    assert all(sig == reference for sig in signatures.values()), signatures
    for quality in qualities.values():
        assert quality == pytest.approx(qualities["python-enum-full"], abs=1e-9)


def test_lazy_search_counter_parity_and_savings():
    scenario = build_scenario(
        ScenarioConfig(num_tasks=1, num_slots=60, num_workers=200, seed=13)
    )
    task = scenario.single_task
    costs = SingleTaskCostTable(task, scenario.fresh_registry())
    c_enum, c_lazy = OpCounters(), OpCounters()
    enum = SingleTaskGreedy(
        task, costs, budget=scenario.budget, strategy="local", counters=c_enum
    ).solve()
    lazy = SingleTaskGreedy(
        task, costs, budget=scenario.budget, strategy="local", search="lazy",
        counters=c_lazy,
    ).solve()
    assert enum.assignment.plan_signature() == lazy.assignment.plan_signature()
    assert c_lazy.gain_evaluations <= 0.30 * c_enum.gain_evaluations
    assert c_lazy.iterations == c_enum.iterations
    # candidates_total keeps the enumerated meaning (every unexecuted
    # assignable slot per round), so counts compare across modes and
    # the pruning counters account for every skipped evaluation.
    assert c_lazy.candidates_total == c_enum.candidates_total
    assert c_lazy.candidates_pruned == (
        c_lazy.candidates_total - c_lazy.gain_evaluations
    )


class _UniformCosts:
    """Every slot costs the same: maximally tie-prone geometry."""

    static_costs = True  # offers never change; lazy search may cache

    def __init__(self, m, cost=1.0):
        self.m = m
        self._cost = cost

    def cost(self, slot):
        return self._cost

    def reliability(self, slot):
        return 1.0

    def offer(self, slot):
        from repro.engine.costs import SlotOffer

        return SlotOffer(slot, self._cost, 1.0)


@pytest.mark.parametrize("m", range(8, 24))
def test_backend_plan_identity_under_exact_ties(m):
    # Regression: with uniform costs, mirror-symmetric candidates have
    # mathematically equal heuristics.  The backends must keep those
    # ties bitwise exact (sequential gain accumulation + scalar-built
    # phi table), or the smallest-index tie-break flips per backend.
    from repro.model.task import Task
    from repro.geo.point import Point

    task = Task(task_id=0, loc=Point(0.0, 0.0), num_slots=m, start_slot=1)
    costs = _UniformCosts(m)
    plans = {}
    for backend in ("python", "numpy"):
        for search in ("enumerate", "lazy"):
            result = SingleTaskGreedy(
                task, costs, budget=3.0, strategy="local", search=search,
                backend=backend, counters=OpCounters(),
            ).solve()
            plans[(backend, search)] = result.assignment.plan_signature()
    reference = plans[("python", "enumerate")]
    assert all(sig == reference for sig in plans.values()), plans


def test_lazy_falls_back_on_dynamic_cost_provider():
    # A provider that does not declare static_costs (e.g. the
    # streaming layer's dynamic offers) must not be served by the
    # caching lazy heap; the solver enumerates instead.
    scenario = build_scenario(
        ScenarioConfig(num_tasks=1, num_slots=30, num_workers=120, seed=13)
    )
    task = scenario.single_task
    costs = SingleTaskCostTable(task, scenario.fresh_registry())

    class _Undeclared:
        def __init__(self, inner):
            self._inner = inner

        def cost(self, slot):
            return self._inner.cost(slot)

        def reliability(self, slot):
            return self._inner.reliability(slot)

        def offer(self, slot):
            return self._inner.offer(slot)

    c_enum, c_lazy = OpCounters(), OpCounters()
    enum = SingleTaskGreedy(
        task, _Undeclared(costs), budget=scenario.budget, strategy="local",
        counters=c_enum,
    ).solve()
    lazy = SingleTaskGreedy(
        task, _Undeclared(costs), budget=scenario.budget, strategy="local",
        search="lazy", counters=c_lazy,
    ).solve()
    assert enum.assignment.plan_signature() == lazy.assignment.plan_signature()
    assert c_lazy.gain_evaluations == c_enum.gain_evaluations  # enumerated


def test_lazy_falls_back_on_heterogeneous_reliability():
    # With non-unit reliabilities the stale-bound argument is unsound
    # (gains can grow after an eviction); the solver must enumerate.
    scenario = build_scenario(
        ScenarioConfig(
            num_tasks=1, num_slots=30, num_workers=120, seed=21,
            reliability_range=(0.2, 0.9),
        )
    )
    task = scenario.single_task
    costs = SingleTaskCostTable(task, scenario.fresh_registry())
    c_enum, c_lazy = OpCounters(), OpCounters()
    enum = SingleTaskGreedy(
        task, costs, budget=scenario.budget, strategy="local", counters=c_enum
    ).solve()
    lazy = SingleTaskGreedy(
        task, costs, budget=scenario.budget, strategy="local", search="lazy",
        counters=c_lazy,
    ).solve()
    assert enum.assignment.plan_signature() == lazy.assignment.plan_signature()
    assert c_lazy.gain_evaluations == c_enum.gain_evaluations


# ----------------------------------------------------------------------
# Perf suite smoke (op-count gates only)
# ----------------------------------------------------------------------
def test_perfsuite_smoke_payload(tmp_path):
    from repro.bench.perfsuite import check_payload, run_suite

    payload = run_suite(smoke=True)
    assert payload["scenarios"][0]["plan_identical"]
    assert check_payload(payload) == []
