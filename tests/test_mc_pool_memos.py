"""The columnar target pool and the per-problem memos of the cold path.

The default fault-injection pool is two columns (rays, distances) instead
of a list of :class:`RayPoint`; it must hold exactly the values the point
list held.  ``optimal_randomized_base`` and the round-robin strategy's
trajectories are memoized; a memo must hand back the bits and the objects
an uncached call does, and never share an entry between different bases.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from repro.analysis.sweep import interesting_grid
from repro.core.bounds import optimal_geometric_base
from repro.core.problem import line_problem, ray_problem
from repro.exceptions import InvalidProblemError, InvalidStrategyError
from repro.faults.injection import sample_spread_targets, simulate_random_faults
from repro.geometry import trajectory as trajectory_module
from repro.geometry.compiled import TargetPool, compiled_team
from repro.geometry.rays import RayPoint
from repro.simulation.monte_carlo import as_generator, sample_fault_trials
from repro.strategies import geometric as geometric_module
from repro.strategies.geometric import RoundRobinGeometricStrategy
from repro.strategies.optimal import optimal_strategy
from repro.strategies.randomized import optimal_randomized_base


def _bits(value):
    return struct.pack("<d", value)


def _reference_spread_targets(rng, num_rays, horizon, count=32):
    """The point-list sampler the pool replaced, verbatim."""
    if count < 1:
        raise InvalidProblemError("need at least one target")
    if not math.isfinite(horizon):
        raise InvalidProblemError(f"horizon must be finite, got {horizon}")
    top = math.log10(max(horizon, 10.0))
    exponents = rng.random(count) * top
    rays = rng.integers(0, num_rays, size=count)
    return [
        RayPoint(ray=ray, distance=min(horizon, max(1.0, 10.0**exponent)))
        for ray, exponent in zip(rays.tolist(), exponents.tolist())
    ]


def _triples(count=200):
    """Seeded ``(seed, m, horizon)`` triples, the clamp edges included."""
    rng = np.random.default_rng(2024)
    edges = [1.0, 1.5, 9.999, 10.0, 10.001, 1e6]
    for index in range(count):
        num_rays = int(rng.integers(1, 6))
        if index < len(edges):
            horizon = edges[index]
        else:
            horizon = float(10.0 ** rng.uniform(0.0, 7.0))
        yield index, num_rays, horizon


# ----------------------------------------------------------------------
# The columnar pool
# ----------------------------------------------------------------------
class TestSpreadPool:
    def test_columns_equal_the_point_list_bit_for_bit(self):
        for seed, num_rays, horizon in _triples():
            fast = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            pool = sample_spread_targets(fast, num_rays, horizon)
            points = _reference_spread_targets(reference, num_rays, horizon)
            assert pool.rays.tolist() == [point.ray for point in points]
            assert [_bits(d) for d in pool.distances.tolist()] == [
                _bits(point.distance) for point in points
            ]
            assert list(pool) == points
            # Both leave the stream in the same place.
            assert fast.random(3).tolist() == reference.random(3).tolist()

    @pytest.mark.parametrize("num_rays", [0, -1])
    def test_rejects_no_rays(self, num_rays):
        with pytest.raises(InvalidProblemError):
            sample_spread_targets(np.random.default_rng(0), num_rays, 100.0)

    @pytest.mark.parametrize("horizon", [0.5, 0.0, -3.0, math.inf, math.nan])
    def test_rejects_horizons_below_one(self, horizon):
        with pytest.raises(InvalidProblemError):
            sample_spread_targets(np.random.default_rng(0), 2, horizon)

    def test_unit_horizon_puts_every_target_at_one(self):
        pool = sample_spread_targets(np.random.default_rng(0), 3, 1.0)
        assert pool.distances.tolist() == [1.0] * 32


class TestTargetPool:
    def test_of_points_keeps_them(self):
        points = [RayPoint(0, 1.5), RayPoint(2, 7.0), RayPoint(1, 3.25)]
        pool = TargetPool.of(points)
        assert TargetPool.of(pool) is pool
        assert pool.rays.tolist() == [0, 2, 1]
        assert pool.distances.tolist() == [1.5, 7.0, 3.25]
        assert len(pool) == 3 and all(a is b for a, b in zip(pool, points))
        assert pool[1] is points[1]

    def test_points_are_built_on_demand(self):
        pool = sample_spread_targets(np.random.default_rng(5), 3, 500.0)
        assert "points" not in vars(pool)
        assert pool[0] == RayPoint(int(pool.rays[0]), float(pool.distances[0]))
        assert "points" in vars(pool)

    def test_arrival_matrix_reads_the_columns(self):
        strategy = optimal_strategy(ray_problem(3, 4, 1))
        team = compiled_team(strategy.materialise(2e3))
        pool = sample_spread_targets(np.random.default_rng(3), 3, 2e3)
        assert np.array_equal(
            team.pool_arrival_matrix(pool), team.pool_arrival_matrix(list(pool))
        )

    def test_batch_targets_are_ray_points(self):
        pool = sample_spread_targets(np.random.default_rng(1), 2, 50.0)
        batch = sample_fault_trials(as_generator(1), 10, 3, 1, pool)
        assert batch.targets is pool
        for trial in range(batch.num_trials):
            index = int(batch.target_indices[trial])
            assert batch.target(trial) == RayPoint(
                int(pool.rays[index]), float(pool.distances[index])
            )

    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_explicit_points_and_their_pool_agree(self, engine):
        strategy = optimal_strategy(line_problem(3, 1))
        points = [RayPoint(0, 2.0), RayPoint(1, 35.0), RayPoint(0, 400.0)]
        runs = [
            simulate_random_faults(
                strategy, 500.0, num_trials=64, seed=4, targets=targets,
                engine=engine,
            )
            for targets in (points, TargetPool.of(points))
        ]
        assert runs[0].to_dict() == runs[1].to_dict()
        assert [t.target for t in runs[0].trials] == [t.target for t in runs[1].trials]
        assert {t.target for t in runs[0].trials} <= set(points)

    def test_explicit_targets_are_still_validated(self):
        strategy = optimal_strategy(line_problem(3, 1))
        for targets in ([], [RayPoint(0, 0.0)]):
            with pytest.raises(InvalidProblemError):
                simulate_random_faults(strategy, 100.0, targets=targets)


# ----------------------------------------------------------------------
# Memos
# ----------------------------------------------------------------------
class TestRandomizedBaseMemo:
    @pytest.mark.parametrize("num_rays", [2, 3, 4, 7])
    def test_same_bits_and_object_as_the_search(self, num_rays):
        memoized = optimal_randomized_base(num_rays)
        searched = optimal_randomized_base.__wrapped__(num_rays)
        assert _bits(memoized) == _bits(searched)
        assert optimal_randomized_base(num_rays) is memoized

    def test_invalid_rays_still_raise(self):
        for _ in range(2):
            with pytest.raises(InvalidProblemError):
                optimal_randomized_base(1)


def _trajectory_memo():
    return geometric_module._round_robin_trajectories


class TestTrajectoryMemo:
    @pytest.fixture(autouse=True)
    def empty_memos(self):
        # An entry keeps the trajectories the schedule memo served when it
        # was filled; start both empty so every entry is filled here.
        _trajectory_memo().cache_clear()
        trajectory_module._excursion_trajectory.cache_clear()

    def test_same_objects_as_the_schedules(self):
        for m, k, f in interesting_grid(4, 5, 1):
            strategy = RoundRobinGeometricStrategy(ray_problem(m, k, f))
            for horizon in (3.0, 250.0, 4e4):
                trajectories = strategy.trajectories(horizon)
                uncached = [
                    trajectory_module._excursion_trajectory(
                        tuple(strategy.excursion_schedule(robot, horizon))
                    )
                    for robot in range(k)
                ]
                assert all(a is b for a, b in zip(trajectories, uncached))
                assert len(trajectories) == k

    def test_cleared_memo_rebuilds_the_same_objects(self):
        strategy = RoundRobinGeometricStrategy(ray_problem(3, 4, 1))
        first = strategy.trajectories(900.0)
        _trajectory_memo().cache_clear()
        again = RoundRobinGeometricStrategy(ray_problem(3, 4, 1)).trajectories(900.0)
        assert all(a is b for a, b in zip(first, again))

    def test_horizons_on_one_cycle_count_share_an_entry(self):
        strategy = RoundRobinGeometricStrategy(ray_problem(2, 3, 1))
        low, high = 1000.0, 1000.0 * (1 + 1e-9)
        assert strategy._last_cycle(low) == strategy._last_cycle(high)
        first = strategy.trajectories(low)
        before = _trajectory_memo().cache_info()
        second = RoundRobinGeometricStrategy(ray_problem(2, 3, 1)).trajectories(high)
        after = _trajectory_memo().cache_info()
        assert after.hits == before.hits + 1 and after.misses == before.misses
        assert all(a is b for a, b in zip(first, second))
        assert second is not first  # callers get their own list

    def test_non_default_alpha_has_its_own_entry(self):
        problem = ray_problem(3, 4, 1)
        default = RoundRobinGeometricStrategy(problem)
        assert default.alpha == optimal_geometric_base(3, 4, 1)
        nudged = RoundRobinGeometricStrategy(
            problem, alpha=float(np.nextafter(default.alpha, 2.0))
        )
        base = default.trajectories(5e3)
        before = _trajectory_memo().cache_info()
        other = nudged.trajectories(5e3)
        after = _trajectory_memo().cache_info()
        assert after.misses == before.misses + 1
        assert not any(a is b for a, b in zip(base, other))
        assert nudged.excursion_schedule(0, 5e3) != default.excursion_schedule(0, 5e3)
        # The default base asked for explicitly is the default entry.
        explicit = RoundRobinGeometricStrategy(problem, alpha=default.alpha)
        assert all(a is b for a, b in zip(explicit.trajectories(5e3), base))

    def test_horizon_below_one_still_raises(self):
        strategy = RoundRobinGeometricStrategy(line_problem(3, 1))
        strategy.trajectories(10.0)
        for horizon in (0.5, 0.999):
            with pytest.raises(InvalidStrategyError):
                strategy.trajectories(horizon)
            with pytest.raises(InvalidStrategyError):
                strategy.materialise(horizon)
