"""Synthetic taxi trajectories — the T-Drive stand-in.

The paper uses 10,357 T-Drive taxi trajectories for worker movements
and "randomly cut[s] out a set of pieces, ranging from 1 to 5 time
slots, as a worker's active slots".  The assignment algorithms consume
only two things from a trajectory: the worker's location at each
active slot and the set of active slots.  The generator reproduces
both: workers follow a random-waypoint model (drive toward a target,
pick a new one on arrival — a standard mobility model for taxis) over
a configurable horizon, and active windows of 1-5 consecutive slots
are cut from the trajectory exactly as the paper describes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point
from repro.model.worker import Worker, WorkerPool
from repro.util.rng import make_rng

__all__ = ["TaxiTrajectoryGenerator"]


class _UniformDraws:
    """Scalar ``Generator.uniform`` draws served from vectorized batches.

    ``low + (high - low) * u`` is numpy's own formula for ``uniform``,
    so every value is bit-identical to the scalar call it replaces.
    :meth:`close` rewinds the generator and re-advances it by exactly
    the draws consumed, leaving it where the scalar calls would have.
    """

    def __init__(self, rng: np.random.Generator, size: int):
        self._rng = rng
        self._state = rng.bit_generator.state
        self._buffer = rng.random(size).tolist()
        self._used = 0

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        if self._used == len(self._buffer):
            self._buffer += self._rng.random(len(self._buffer)).tolist()
        u = self._buffer[self._used]
        self._used += 1
        return low + (high - low) * u

    def close(self) -> None:
        self._rng.bit_generator.state = self._state
        self._rng.random(self._used)


class TaxiTrajectoryGenerator:
    """Random-waypoint worker trajectories with 1-5-slot active windows."""

    def __init__(
        self,
        bbox: BoundingBox,
        *,
        horizon: int,
        speed_fraction: float = 0.02,
        min_window: int = 1,
        max_window: int = 5,
        windows_per_worker: tuple[int, int] = (1, 4),
        hotspot_bias: float = 0.0,
        seed: int | np.random.Generator | None = 0,
    ):
        """``horizon`` is the number of global time slots covered.

        ``speed_fraction`` scales per-slot travel to the domain side;
        ``hotspot_bias`` (0..1) makes waypoint choice prefer a few
        hotspots, mimicking taxi flows toward busy areas.
        """
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        if not 1 <= min_window <= max_window:
            raise ConfigurationError(
                f"invalid window range [{min_window}, {max_window}]"
            )
        if not 0.0 <= hotspot_bias <= 1.0:
            raise ConfigurationError(f"hotspot_bias must be in [0, 1], got {hotspot_bias}")
        lo, hi = windows_per_worker
        if not 1 <= lo <= hi:
            raise ConfigurationError(f"invalid windows_per_worker {windows_per_worker}")
        self.bbox = bbox
        self.horizon = horizon
        self.speed = speed_fraction * max(bbox.width, bbox.height)
        self.min_window = min_window
        self.max_window = max_window
        self.windows_per_worker = windows_per_worker
        self.hotspot_bias = hotspot_bias
        self._rng = make_rng(seed)
        self._hotspots = [
            Point(
                float(self._rng.uniform(bbox.min_x, bbox.max_x)),
                float(self._rng.uniform(bbox.min_y, bbox.max_y)),
            )
            for _ in range(5)
        ]

    # ------------------------------------------------------------------
    # Trajectory synthesis
    # ------------------------------------------------------------------
    def _waypoint(self, uniform) -> Point:
        rng = self._rng
        if self.hotspot_bias > 0.0 and uniform() < self.hotspot_bias:
            hotspot = self._hotspots[int(rng.integers(len(self._hotspots)))]
            sigma = 0.05 * max(self.bbox.width, self.bbox.height)
            return self.bbox.clamp(
                Point(
                    float(rng.normal(hotspot.x, sigma)),
                    float(rng.normal(hotspot.y, sigma)),
                )
            )
        return Point(
            float(uniform(self.bbox.min_x, self.bbox.max_x)),
            float(uniform(self.bbox.min_y, self.bbox.max_y)),
        )

    def trajectory(self) -> list[Point]:
        """One full trajectory: a location per slot ``1..horizon``."""
        if self.hotspot_bias > 0.0:
            # Hotspot waypoints mix normal and integer draws in.
            return self._walk(self._rng.uniform)
        draws = _UniformDraws(self._rng, self.horizon + 8)
        try:
            return self._walk(draws.uniform)
        finally:
            draws.close()

    def _walk(self, uniform) -> list[Point]:
        position = self._waypoint(uniform)
        target = self._waypoint(uniform)
        path = []
        for _ in range(self.horizon):
            path.append(position)
            dx = target.x - position.x
            dy = target.y - position.y
            dist = math.hypot(dx, dy)
            step = float(self.speed * uniform(0.5, 1.5))
            if dist <= step:
                position = target
                target = self._waypoint(uniform)
            else:
                position = Point(
                    position.x + dx / dist * step, position.y + dy / dist * step
                )
        return path

    def _cut_windows(self) -> list[tuple[int, int]]:
        """Random non-overlapping active windows of 1-5 slots."""
        rng = self._rng
        lo, hi = self.windows_per_worker
        count = int(rng.integers(lo, hi + 1))
        windows: list[tuple[int, int]] = []
        occupied: set[int] = set()
        attempts = 0
        while len(windows) < count and attempts < 20 * count:
            attempts += 1
            length = int(rng.integers(self.min_window, self.max_window + 1))
            if length > self.horizon:
                length = self.horizon
            start = int(rng.integers(1, self.horizon - length + 2))
            slots = range(start, start + length)
            if any(s in occupied for s in slots):
                continue
            # Reserve a one-slot gap so two windows never fuse into a
            # single longer active run.
            occupied.update(range(start - 1, start + length + 1))
            windows.append((start, start + length - 1))
        windows.sort()
        return windows

    # ------------------------------------------------------------------
    # Worker construction
    # ------------------------------------------------------------------
    def worker(self, worker_id: int, *, reliability: float = 1.0) -> Worker:
        """Generate one worker: trajectory + cut active windows."""
        path = self.trajectory()
        availability: dict[int, Point] = {}
        for start, end in self._cut_windows():
            for slot in range(start, end + 1):
                availability[slot] = path[slot - 1]
        return Worker(worker_id, availability, reliability)

    def pool(
        self,
        n: int,
        *,
        reliability_range: tuple[float, float] = (1.0, 1.0),
    ) -> WorkerPool:
        """Generate a pool of ``n`` workers with ids ``0..n-1``.

        ``reliability_range`` draws each worker's lambda uniformly —
        ``(1.0, 1.0)`` (the default) disables the reliability extension.
        """
        lo, hi = reliability_range
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigurationError(f"invalid reliability range {reliability_range}")
        workers = []
        for worker_id in range(n):
            lam = float(self._rng.uniform(lo, hi)) if hi > lo else lo
            workers.append(self.worker(worker_id, reliability=lam))
        return WorkerPool(workers)
