"""Tests for the workload generators (spatial, POI, trajectories, scenario)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geo.bbox import BoundingBox
from repro.workloads.poi import ClusteredPOIGenerator
from repro.workloads.scenario import ScenarioConfig, build_scenario
from repro.workloads.spatial import Distribution, generate_points
from repro.workloads.trajectories import TaxiTrajectoryGenerator

BOX = BoundingBox.square(100.0)


class TestSpatialGenerators:
    @pytest.mark.parametrize("dist", ["uniform", "gaussian", "zipfian", "real"])
    def test_points_inside_domain(self, dist):
        for p in generate_points(200, BOX, dist, seed=1):
            assert BOX.contains(p)

    @pytest.mark.parametrize("dist", list(Distribution))
    def test_deterministic(self, dist):
        a = generate_points(50, BOX, dist, seed=42)
        b = generate_points(50, BOX, dist, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_points(50, BOX, "uniform", seed=1)
        b = generate_points(50, BOX, "uniform", seed=2)
        assert a != b

    def test_gaussian_concentrates_at_center(self):
        points = generate_points(2000, BOX, "gaussian", seed=3)
        xs = np.array([p.x for p in points])
        # Paper: mean = domain center, sigma = side/6.
        assert abs(xs.mean() - 50.0) < 2.0
        assert abs(xs.std() - 100.0 / 6) < 2.0

    def test_zipfian_skews_to_origin(self):
        points = generate_points(2000, BOX, "zipfian", seed=3)
        xs = np.array([p.x for p in points])
        assert np.median(xs) < 25.0  # heavy mass near the low corner

    def test_uniform_spreads(self):
        points = generate_points(2000, BOX, "uniform", seed=3)
        xs = np.array([p.x for p in points])
        assert 45.0 < xs.mean() < 55.0

    def test_rejects_negative_n(self):
        with pytest.raises(ConfigurationError):
            generate_points(-1, BOX, "uniform")

    def test_rejects_bad_zipf_exponent(self):
        with pytest.raises(ConfigurationError):
            generate_points(10, BOX, "zipfian", zipf_exponent=0.0)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            generate_points(10, BOX, "pareto")


class TestPOIGenerator:
    def test_points_inside_domain(self):
        for p in ClusteredPOIGenerator(BOX, seed=1).generate(300):
            assert BOX.contains(p)

    def test_clustered_tighter_than_uniform(self):
        poi = ClusteredPOIGenerator(BOX, background_fraction=0.0, seed=5).generate(1500)
        uniform = generate_points(1500, BOX, "uniform", seed=5)

        def nn_dist_sample(points):
            pts = points[:200]
            total = 0.0
            for i, p in enumerate(pts):
                total += min(p.distance_to(q) for j, q in enumerate(pts) if j != i)
            return total / len(pts)

        assert nn_dist_sample(poi) < nn_dist_sample(uniform)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusteredPOIGenerator(BOX, num_hotspots=0)
        with pytest.raises(ConfigurationError):
            ClusteredPOIGenerator(BOX, background_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ClusteredPOIGenerator(BOX).generate(-1)


class TestTrajectories:
    def test_worker_windows_are_short(self):
        gen = TaxiTrajectoryGenerator(BOX, horizon=50, seed=2)
        pool = gen.pool(40)
        for worker in pool:
            slots = worker.active_slots
            if not slots:
                continue
            # Decompose into consecutive runs; each must be 1..5 slots.
            runs, run = [], 1
            for a, b in zip(slots, slots[1:]):
                if b == a + 1:
                    run += 1
                else:
                    runs.append(run)
                    run = 1
            runs.append(run)
            assert all(1 <= r <= 5 for r in runs)

    def test_slots_within_horizon(self):
        gen = TaxiTrajectoryGenerator(BOX, horizon=30, seed=2)
        worker = gen.worker(0)
        assert all(1 <= s <= 30 for s in worker.availability)

    def test_locations_within_domain(self):
        gen = TaxiTrajectoryGenerator(BOX, horizon=30, seed=2)
        for slot, loc in gen.worker(0).availability.items():
            assert BOX.contains(loc)

    def test_trajectory_moves_continuously(self):
        gen = TaxiTrajectoryGenerator(BOX, horizon=40, speed_fraction=0.02, seed=4)
        path = gen.trajectory()
        max_step = 0.02 * 100.0 * 1.5 + 1e-9
        for a, b in zip(path, path[1:]):
            assert a.distance_to(b) <= max_step

    @pytest.mark.parametrize("speed_fraction", [0.02, 0.9])
    def test_batched_draws_match_scalar_draws(self, speed_fraction):
        # 0.9 reaches a waypoint almost every slot, so the walk outruns
        # its first batch of draws and has to extend it.
        batched = TaxiTrajectoryGenerator(BOX, horizon=60, speed_fraction=speed_fraction, seed=8)
        scalar = TaxiTrajectoryGenerator(BOX, horizon=60, speed_fraction=speed_fraction, seed=8)
        for _ in range(3):
            assert batched.trajectory() == scalar._walk(scalar._rng.uniform)
        # The generator is left exactly where the scalar draws leave it.
        assert batched._rng.random(4).tolist() == scalar._rng.random(4).tolist()

    def test_reliability_range(self):
        gen = TaxiTrajectoryGenerator(BOX, horizon=20, seed=3)
        pool = gen.pool(30, reliability_range=(0.4, 0.9))
        for worker in pool:
            assert 0.4 <= worker.reliability <= 0.9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TaxiTrajectoryGenerator(BOX, horizon=0)
        with pytest.raises(ConfigurationError):
            TaxiTrajectoryGenerator(BOX, horizon=10, min_window=3, max_window=2)
        with pytest.raises(ConfigurationError):
            TaxiTrajectoryGenerator(BOX, horizon=10, hotspot_bias=2.0)
        gen = TaxiTrajectoryGenerator(BOX, horizon=10)
        with pytest.raises(ConfigurationError):
            gen.pool(5, reliability_range=(0.9, 0.4))


class TestScenarioBuilder:
    def test_deterministic(self):
        cfg = ScenarioConfig(num_tasks=2, num_slots=20, num_workers=50, seed=5)
        a = build_scenario(cfg)
        b = build_scenario(cfg)
        assert [t.loc for t in a.tasks] == [t.loc for t in b.tasks]
        assert a.budget == pytest.approx(b.budget)

    def test_changing_task_count_keeps_worker_streams(self):
        base = ScenarioConfig(num_tasks=1, num_slots=20, num_workers=50, seed=5)
        more = base.with_overrides(num_tasks=3)
        a = build_scenario(base)
        b = build_scenario(more)
        assert a.pool.by_id(0).availability == b.pool.by_id(0).availability

    def test_budget_fraction(self):
        cfg = ScenarioConfig(num_tasks=1, num_slots=20, num_workers=80, seed=5,
                             budget_fraction=0.5)
        scenario = build_scenario(cfg)
        assert scenario.budget > 0

    def test_absolute_budget(self):
        cfg = ScenarioConfig(num_tasks=1, num_slots=20, num_workers=80, seed=5, budget=42.0)
        assert build_scenario(cfg).budget == 42.0

    def test_single_task_accessor(self):
        multi = build_scenario(ScenarioConfig(num_tasks=2, num_slots=20, num_workers=50, seed=5))
        with pytest.raises(ConfigurationError):
            _ = multi.single_task

    def test_fresh_registry_is_independent(self):
        scenario = build_scenario(
            ScenarioConfig(num_tasks=1, num_slots=20, num_workers=50, seed=5)
        )
        r1 = scenario.fresh_registry()
        r2 = scenario.fresh_registry()
        assert r1 is not r2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(num_tasks=0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(budget_fraction=0.0)
