"""Differential tests: the batched Monte-Carlo engine against its scalar oracle.

Both engines consume *identical* seeded trial draws (the sampling happens
once, as matrices, before evaluation), so the comparison is exact: the
batched fault-injection path must match the per-trial reference loop, and
the closed-form batched offset schedule must match materialised
trajectories, everywhere to 1e-9 — across the full ``interesting_grid()``
of (m, k, f) triples, mirroring ``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.analysis.sweep import interesting_grid
from repro.core.problem import ray_problem
from repro.exceptions import InvalidProblemError
from repro.faults.injection import (
    detection_time_with_crash_times,
    detection_time_with_faults,
    simulate_random_faults,
)
from repro.geometry.rays import RayPoint
from repro.geometry.trajectory import (
    excursion_trajectory,
    one_off_excursion_trajectory,
    straight_trajectory,
)
from repro.simulation.monte_carlo import (
    CyclicOffsetSchedule,
    as_generator,
    cyclic_schedule_indices,
    fault_detection_times,
    sample_fault_trials,
    target_arrival_matrix,
)
from repro.strategies.geometric import RoundRobinGeometricStrategy
from repro.strategies.optimal import optimal_strategy
from repro.strategies.randomized import (
    RandomizedSingleRobotRayStrategy,
    monte_carlo_expected_ratio,
    monte_carlo_ratio_report,
)

AGREEMENT = 1e-9


def _assert_close_or_both_inf(fast, slow, context=None):
    if math.isinf(slow) or math.isinf(fast):
        assert slow == fast, context
    else:
        assert fast == pytest.approx(slow, abs=AGREEMENT), context


class TestFaultWorkloadEquivalence:
    @pytest.mark.parametrize("m,k,f", interesting_grid())
    def test_full_interesting_grid(self, m, k, f):
        problem = ray_problem(m, k, f)
        strategy = optimal_strategy(problem)
        horizon = 300.0
        trajectories = strategy.materialise(horizon)
        targets = [
            RayPoint(ray, d) for ray in range(m) for d in (1.0, 7.3, 61.0, 290.0)
        ]
        for crash_model in ("silent", "uniform"):
            batch = sample_fault_trials(
                as_generator(20260726 + m * 100 + k * 10 + f),
                num_trials=96,
                num_robots=k,
                num_faulty=f,
                targets=targets,
                crash_model=crash_model,
                horizon=horizon,
            )
            scalar = fault_detection_times(trajectories, batch, engine="scalar")
            vectorized = fault_detection_times(trajectories, batch, engine="vectorized")
            for trial in range(batch.num_trials):
                _assert_close_or_both_inf(
                    vectorized[trial], scalar[trial], (m, k, f, crash_model, trial)
                )

    def test_chunked_evaluation_matches_unchunked(self, line_3_1):
        strategy = RoundRobinGeometricStrategy(line_3_1)
        trajectories = strategy.materialise(200.0)
        targets = [RayPoint(0, 3.0), RayPoint(1, 50.0), RayPoint(0, 190.0)]
        batch = sample_fault_trials(
            as_generator(5), 257, 3, 1, targets, crash_model="uniform", horizon=200.0
        )
        full = fault_detection_times(trajectories, batch, trials_per_batch=10_000)
        chunked = fault_detection_times(trajectories, batch, trials_per_batch=16)
        assert np.array_equal(full, chunked)

    def test_scalar_reference_matches_first_visit_semantics(self):
        trajectories = [
            straight_trajectory(0, 10.0),
            excursion_trajectory([(1, 2.0), (0, 10.0)]),
        ]
        target = RayPoint(0, 4.0)
        # Silent crash (cut-off 0) is exactly the fixed-fault-set semantics.
        assert detection_time_with_crash_times(
            trajectories, target, [0.0, math.inf]
        ) == pytest.approx(detection_time_with_faults(trajectories, target, [0]))
        # A cut-off after the visit lets the faulty robot report it.
        assert detection_time_with_crash_times(
            trajectories, target, [5.0, math.inf]
        ) == pytest.approx(4.0)
        # A cut-off before the visit silences it.
        assert detection_time_with_crash_times(
            trajectories, target, [3.0, math.inf]
        ) == pytest.approx(8.0)
        with pytest.raises(InvalidProblemError):
            detection_time_with_crash_times(trajectories, target, [0.0])

    def test_never_detected_trials_are_inf_in_both_engines(self):
        # Only one robot ever moves on ray 0, so any trial that makes it
        # faulty (silently) never confirms a ray-0 target.
        trajectories = [
            straight_trajectory(0, 100.0),
            straight_trajectory(1, 100.0),
            straight_trajectory(1, 100.0),
        ]
        targets = [RayPoint(0, 5.0)]
        batch = sample_fault_trials(as_generator(1), 64, 3, 1, targets)
        scalar = fault_detection_times(trajectories, batch, engine="scalar")
        vectorized = fault_detection_times(trajectories, batch, engine="vectorized")
        assert np.array_equal(scalar, vectorized)
        silenced = batch.fault_matrix[:, 0]
        assert np.all(np.isinf(scalar[silenced]))
        assert np.all(np.isfinite(scalar[~silenced]))

    def test_report_level_equivalence(self, line_3_1):
        strategy = RoundRobinGeometricStrategy(line_3_1)
        scalar = simulate_random_faults(
            strategy, 300.0, num_trials=200, seed=17, engine="scalar"
        )
        vectorized = simulate_random_faults(
            strategy, 300.0, num_trials=200, seed=17, engine="vectorized"
        )
        assert scalar.adversarial_ratio == vectorized.adversarial_ratio
        for a, b in zip(scalar.trials, vectorized.trials):
            assert a.target == b.target
            assert a.faulty_robots == b.faulty_robots
            _assert_close_or_both_inf(b.ratio, a.ratio)

    def test_arrival_matrix_pool_ordering(self):
        trajectories = [straight_trajectory(0, 10.0), straight_trajectory(1, 8.0)]
        targets = [RayPoint(1, 2.0), RayPoint(0, 3.0), RayPoint(1, 9.0)]
        matrix = target_arrival_matrix(trajectories, targets)
        assert matrix.shape == (2, 3)
        assert matrix[1, 0] == pytest.approx(2.0)
        assert matrix[0, 1] == pytest.approx(3.0)
        assert math.isinf(matrix[1, 2])  # beyond robot 1's reach
        assert math.isinf(matrix[0, 0])  # robot 0 never visits ray 1

    def test_batch_robot_count_mismatch_rejected(self, line_3_1):
        strategy = RoundRobinGeometricStrategy(line_3_1)
        trajectories = strategy.materialise(100.0)
        batch = sample_fault_trials(
            as_generator(0), 8, 2, 1, [RayPoint(0, 2.0)]
        )
        with pytest.raises(InvalidProblemError):
            fault_detection_times(trajectories, batch)

    def test_unknown_engine_rejected(self, line_3_1):
        strategy = RoundRobinGeometricStrategy(line_3_1)
        with pytest.raises(InvalidProblemError):
            simulate_random_faults(strategy, 100.0, num_trials=4, engine="quantum")


class TestOffsetWorkloadEquivalence:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_closed_form_matches_materialised_trajectories(self, m):
        strategy = RandomizedSingleRobotRayStrategy(m)
        horizon = 250.0
        plan = strategy.schedule_plan(horizon)
        offsets = strategy.sample_offsets(60, seed=m)
        targets = [
            (ray, d)
            for ray in range(m)
            for d in (0.01, 0.6, 1.0, 1.7, 17.3, 99.9, 249.0)
        ]
        batched = plan.arrival_times(offsets, targets)
        for row, offset in enumerate(offsets):
            trajectory = strategy.sample(
                None, horizon=horizon, offset=float(offset)
            ).trajectory()
            for column, (ray, d) in enumerate(targets):
                _assert_close_or_both_inf(
                    batched[row, column],
                    trajectory.first_arrival_time(ray, d),
                    (m, offset, ray, d),
                )

    def test_non_optimal_bases_agree_too(self):
        for base in (1.5, 2.0, 7.0):
            strategy = RandomizedSingleRobotRayStrategy(3, base=base)
            plan = strategy.schedule_plan(80.0)
            offsets = strategy.sample_offsets(25, seed=11)
            targets = [(0, 5.0), (1, 33.3), (2, 79.0)]
            batched = plan.arrival_times(offsets, targets)
            for row, offset in enumerate(offsets):
                trajectory = strategy.sample(
                    None, horizon=80.0, offset=float(offset)
                ).trajectory()
                for column, (ray, d) in enumerate(targets):
                    _assert_close_or_both_inf(
                        batched[row, column],
                        trajectory.first_arrival_time(ray, d),
                        (base, offset, ray, d),
                    )

    def test_boundary_offsets(self):
        # Offsets exactly at 0 and m are legal and must agree like any other.
        strategy = RandomizedSingleRobotRayStrategy(2)
        plan = strategy.schedule_plan(100.0)
        targets = [(0, 9.0), (1, 42.0)]
        batched = plan.arrival_times(np.array([0.0, 2.0]), targets)
        for row, offset in enumerate((0.0, 2.0)):
            trajectory = strategy.sample(None, horizon=100.0, offset=offset).trajectory()
            for column, (ray, d) in enumerate(targets):
                _assert_close_or_both_inf(
                    batched[row, column], trajectory.first_arrival_time(ray, d)
                )

    def test_estimator_engines_agree(self):
        strategy = RandomizedSingleRobotRayStrategy(2)
        targets = [(0, 17.3), (1, 42.0)]
        scalar = monte_carlo_expected_ratio(
            strategy, targets, num_samples=300, seed=3, engine="scalar"
        )
        vectorized = monte_carlo_expected_ratio(
            strategy, targets, num_samples=300, seed=3, engine="vectorized"
        )
        assert vectorized == pytest.approx(scalar, abs=AGREEMENT)

    def test_report_engines_agree_per_target(self):
        strategy = RandomizedSingleRobotRayStrategy(3)
        targets = [(0, 5.0), (1, 60.0), (2, 11.1)]
        scalar = monte_carlo_ratio_report(
            strategy, targets, num_samples=200, seed=8, engine="scalar"
        )
        vectorized = monte_carlo_ratio_report(
            strategy, targets, num_samples=200, seed=8, engine="vectorized"
        )
        for a, b in zip(scalar.per_target, vectorized.per_target):
            assert b.mean == pytest.approx(a.mean, abs=AGREEMENT)
            assert b.std_error == pytest.approx(a.std_error, abs=AGREEMENT)

    def test_schedule_indices_match_sampler(self):
        # Single source of truth: the sampler's excursion list is exactly
        # the planned index range.
        strategy = RandomizedSingleRobotRayStrategy(3, base=2.5)
        indices = cyclic_schedule_indices(3, 2.5, 120.0)
        schedule = strategy.sample(random.Random(0), horizon=120.0)
        assert len(schedule.excursions) == indices.size
        for n, (ray, radius) in zip(indices, schedule.excursions):
            assert ray == int(n) % 3
            assert radius == pytest.approx(2.5 ** (int(n) + schedule.offset))

    def test_plan_validates_inputs(self):
        plan = CyclicOffsetSchedule.plan(2, 3.0, 50.0)
        with pytest.raises(InvalidProblemError):
            plan.arrival_times(np.array([0.5]), [(2, 5.0)])  # bad ray
        with pytest.raises(InvalidProblemError):
            plan.arrival_times(np.array([0.5]), [(0, 500.0)])  # beyond horizon
        with pytest.raises(InvalidProblemError):
            plan.arrival_times(np.array([3.5]), [(0, 5.0)])  # offset out of range

    def test_large_sample_chunking_matches(self):
        strategy = RandomizedSingleRobotRayStrategy(2)
        plan = strategy.schedule_plan(60.0)
        offsets = strategy.sample_offsets(501, seed=4)
        targets = [(0, 3.0), (1, 55.0)]
        full = plan.arrival_times(offsets, targets, trials_per_batch=10_000)
        chunked = plan.arrival_times(offsets, targets, trials_per_batch=32)
        assert np.array_equal(full, chunked)


class TestClosedFormEdgeCases:
    """The closed-form prefix at the ends of the schedule, against the oracle."""

    @staticmethod
    def _oracle(strategy, horizon, offset, keep=None):
        """The materialised trajectory of one offset (its first ``keep`` excursions)."""
        excursions = strategy.sample(None, horizon=horizon, offset=float(offset)).excursions
        return one_off_excursion_trajectory(excursions[:keep])

    def test_target_covered_by_the_first_excursion(self):
        strategy = RandomizedSingleRobotRayStrategy(3)
        plan = strategy.schedule_plan(50.0)
        start = int(plan.indices[0])
        # Below the first radius base**(start + U) of every offset, on its ray.
        ray, distance = start % 3, 0.5 * strategy.base**start
        offsets = strategy.sample_offsets(40, seed=2)
        batched = plan.arrival_times(offsets, [(ray, distance)])
        # No excursion precedes the first one: the arrival is the distance.
        assert batched[:, 0].tolist() == [distance] * offsets.size
        for row, offset in enumerate(offsets):
            _assert_close_or_both_inf(
                batched[row, 0],
                self._oracle(strategy, 50.0, offset).first_arrival_time(ray, distance),
            )

    def test_target_past_the_last_excursion_is_inf(self):
        strategy = RandomizedSingleRobotRayStrategy(2)
        horizon = 100.0
        full = strategy.schedule_plan(horizon)
        keep = full.indices.size - 4
        plan = CyclicOffsetSchedule(
            num_rays=2, base=full.base, horizon=horizon, indices=full.indices[:keep]
        )
        offsets = strategy.sample_offsets(60, seed=6)
        targets = [(0, 90.0), (1, 99.0), (0, 0.5)]
        batched = plan.arrival_times(offsets, targets)
        # The truncated schedule leaves (0, 90) out of reach for some
        # offsets only, and always reaches (0, 0.5).
        assert np.isinf(batched[:, 0]).any() and np.isfinite(batched[:, 0]).any()
        assert np.isfinite(batched[:, 2]).all()
        for row, offset in enumerate(offsets):
            trajectory = self._oracle(strategy, horizon, offset, keep)
            for column, (ray, d) in enumerate(targets):
                _assert_close_or_both_inf(
                    batched[row, column], trajectory.first_arrival_time(ray, d),
                    (offset, ray, d),
                )

    def test_target_at_the_origin_is_zero(self):
        strategy = RandomizedSingleRobotRayStrategy(2)
        plan = strategy.schedule_plan(20.0)
        offsets = strategy.sample_offsets(20, seed=9)
        targets = [(0, 0.0), (1, 1e-12), (0, 4e-13)]
        batched = plan.arrival_times(offsets, targets)
        assert not batched.any()
        for row, offset in enumerate(offsets):
            trajectory = self._oracle(strategy, 20.0, offset)
            for column, (ray, d) in enumerate(targets):
                _assert_close_or_both_inf(
                    batched[row, column], trajectory.first_arrival_time(ray, d)
                )

    @pytest.mark.parametrize("m", [2, 3])
    def test_targets_on_the_radii(self, m):
        # A target at an excursion's radius (to within the 1e-12 coverage
        # tolerance) is where the exponent guess needs its correction.
        strategy = RandomizedSingleRobotRayStrategy(m)
        horizon = 500.0
        plan = strategy.schedule_plan(horizon)
        for offset in strategy.sample_offsets(8, seed=m):
            targets = [
                (int(n) % m, d)
                for n in plan.indices
                for radius in [strategy.base ** (int(n) + offset)]
                for d in (radius - 1e-12, radius, radius + 1e-12)
                if 1e-12 < d <= horizon
            ]
            batched = plan.arrival_times(np.array([offset]), targets)[0]
            trajectory = self._oracle(strategy, horizon, offset)
            for (ray, d), arrival in zip(targets, batched):
                _assert_close_or_both_inf(
                    arrival, trajectory.first_arrival_time(ray, d), (offset, ray, d)
                )

    def test_four_rays_at_horizon_1e6(self):
        # Where base**p is largest.  Arrivals reach ~2e7, where one ulp is
        # 3.7e-9, so the 1e-9 bound applies to the ratio arrival / distance
        # that the estimators average (as in test_estimator_engines_agree).
        strategy = RandomizedSingleRobotRayStrategy(4)
        horizon = 1e6
        plan = strategy.schedule_plan(horizon)
        offsets = strategy.sample_offsets(40, seed=5)
        targets = [
            (ray, d) for ray in range(4) for d in (1.0, 3e2, 7.7e4, 5e5, 1e6)
        ]
        batched = plan.arrival_times(offsets, targets)
        assert np.isfinite(batched).all()
        for row, offset in enumerate(offsets):
            trajectory = self._oracle(strategy, horizon, offset)
            for column, (ray, d) in enumerate(targets):
                _assert_close_or_both_inf(
                    batched[row, column] / d,
                    trajectory.first_arrival_time(ray, d) / d,
                    (offset, ray, d),
                )


class TestCrossEngineSweep:
    def test_sweep_engines_agree(self):
        from repro.analysis.sweep import sweep_random_faults

        grid = [(2, 3, 1), (3, 4, 1)]
        scalar = sweep_random_faults(
            grid, horizon=120.0, num_trials=48, seed=2, engine="scalar"
        )
        vectorized = sweep_random_faults(
            grid, horizon=120.0, num_trials=48, seed=2, engine="vectorized"
        )
        for a, b in zip(scalar, vectorized):
            assert a.seed == b.seed
            assert b.mean_ratio == pytest.approx(a.mean_ratio, abs=AGREEMENT)
            assert b.quantile_95 == pytest.approx(a.quantile_95, abs=AGREEMENT)
