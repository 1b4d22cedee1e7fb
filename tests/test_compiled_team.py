"""Differential tests: the fused team kernel against the per-robot lookup.

A :class:`~repro.geometry.compiled.CompiledTeam` must return *exactly* the
floats :meth:`CompiledTrajectory.first_arrival_times` returns robot by
robot (``np.array_equal``, not a tolerance): the payload digests rest on
it.  The team's cached candidates must equal the adversary's enumeration
at every horizon, the batched best response must keep the scalar loop's
tie-breaking across rays, and teams of one-off trajectories must stay out
of the process-wide memo.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.problem import line_problem, ray_problem
from repro.faults.adversary import Adversary, candidate_distances
from repro.faults.models import fault_model_for
from repro.geometry.compiled import CompiledTeam, _compiled_team, compiled_team
from repro.geometry.rays import RayPoint
from repro.geometry.trajectory import (
    excursion_trajectory,
    idle_trajectory,
    one_off_excursion_trajectory,
    straight_trajectory,
    zigzag_trajectory,
)
from repro.simulation.competitive import evaluate_strategy
from repro.simulation.engine import best_candidate, detection_outcomes
from repro.simulation.monte_carlo import target_arrival_matrix
from repro.strategies.geometric import RoundRobinGeometricStrategy
from repro.strategies.naive import TrivialStraightStrategy
from repro.strategies.randomized import (
    RandomizedSingleRobotRayStrategy,
    monte_carlo_ratio_report,
)


def _random_robot(rng: random.Random, num_rays: int):
    """A random excursion, zigzag or straight trajectory on ``num_rays`` rays."""
    kind = rng.random()
    if num_rays == 2 and kind < 0.25:
        radius, points = rng.uniform(0.1, 1.0), []
        for _ in range(rng.randint(1, 10)):
            radius *= rng.uniform(1.05, 2.5)
            points.append(radius)
        return zigzag_trajectory(points, start_positive=rng.random() < 0.5)
    if kind < 0.35:
        return straight_trajectory(rng.randrange(num_rays), rng.uniform(0.5, 60.0))
    excursions = [
        (rng.randrange(num_rays), rng.uniform(0.05, 50.0))
        for _ in range(rng.randint(1, 12))
    ]
    if rng.random() < 0.3:
        # Shared radii: the union of reaches has ties across robots.
        excursions.append((0, 8.0))
    return excursion_trajectory(excursions)


def _per_robot(trajectories, ray, distances):
    """The reference: one compiled lookup per robot, stacked."""
    rows = [t.compiled().first_arrival_times(ray, distances) for t in trajectories]
    return np.vstack(rows) if rows else np.empty((0, distances.size))


def _probes(trajectories, ray, rng):
    """Every reach, reach +/- 1e-12, the origin band and beyond the last reach."""
    probes = [0.0, 1e-13, 1e-12, -1.0, 0.5]
    reaches = [r for t in trajectories for r in t.arrival_pieces(ray)[1]]
    for reach in reaches:
        probes.extend([reach, reach - 1e-12, reach + 1e-12, reach * (1.0 + 1e-9)])
    top = max(reaches, default=1.0)
    probes.extend([top * 1.5 + 1.0, top * 1e6])
    probes.extend(rng.uniform(0.0, top + 5.0) for _ in range(25))
    return np.asarray(probes)


class TestTeamKernelMatchesPerRobot:
    def test_random_teams_every_ray(self):
        rng = random.Random(20261020)
        for trial in range(60):
            num_rays = rng.choice([1, 2, 3, 5])
            team = [_random_robot(rng, num_rays) for _ in range(rng.randint(1, 6))]
            compiled = CompiledTeam(team)
            for ray in range(num_rays + 1):  # +1: a ray no robot visits
                probes = _probes(team, ray, rng)
                expected = _per_robot(team, ray, probes)
                assert np.array_equal(compiled.arrival_matrix(ray, probes), expected), (
                    trial,
                    ray,
                )

    def test_pool_matrix_is_per_ray_matrix_in_pool_order(self):
        rng = random.Random(5)
        for _ in range(20):
            team = [_random_robot(rng, 3) for _ in range(4)]
            pool = [
                RayPoint(rng.randrange(4), float(d))
                for d in np.concatenate([_probes(team, 0, rng), [0.0, 2.0, 8.0]])
                if d >= 0
            ]
            rng.shuffle(pool)
            expected = np.empty((len(team), len(pool)))
            for column, target in enumerate(pool):
                expected[:, column] = _per_robot(
                    team, target.ray, np.array([target.distance])
                )[:, 0]
            assert np.array_equal(target_arrival_matrix(team, pool), expected)

    def test_degenerate_teams(self):
        distances = np.array([0.0, 1.0, 2.0])
        assert CompiledTeam([]).arrival_matrix(0, distances).shape == (0, 3)
        idle = CompiledTeam([idle_trajectory()]).arrival_matrix(0, distances)
        assert np.array_equal(idle, [[0.0, np.inf, np.inf]])
        assert CompiledTeam([]).pool_arrival_matrix([]).shape == (0, 0)


class TestCachedCandidates:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_clipped_cache_equals_enumeration(self, seed):
        rng = random.Random(seed)
        team = [_random_robot(rng, 2) for _ in range(4)]
        compiled = CompiledTeam(team)
        for ray in (0, 1, 2):
            for min_distance in (1.0, 0.3):
                every = candidate_distances(team, ray, min_distance=min_distance)
                horizons = [min_distance * 0.5, every[0] * 0.999]
                for candidate in every:
                    horizons.extend(
                        [candidate, np.nextafter(candidate, 0.0), candidate * (1 + 1e-12)]
                    )
                for horizon in horizons:
                    expected = candidate_distances(
                        team, ray, min_distance=min_distance, horizon=horizon
                    )
                    clipped = compiled.candidates(ray, min_distance, horizon)
                    assert clipped.tolist() == expected, (ray, min_distance, horizon)


class TestBestCandidateTieBreak:
    def test_cross_ray_tie_picks_lowest_ray(self):
        # Mirror-image robots: every ray-0 target has a ray-1 twin with the
        # same confirmation time, so the ratios tie exactly across rays.
        schedule = [(0, 2.0), (1, 2.0), (0, 5.0), (1, 5.0)]
        mirrored = [(1 - ray, radius) for ray, radius in schedule]
        team = [excursion_trajectory(schedule), excursion_trajectory(mirrored)]
        model = fault_model_for(line_problem(2, 1))
        distances = [1.0, 2.5, 4.0]
        first = best_candidate(team, model, {1: distances, 0: distances})
        assert first.ray == 0
        assert first.ratio == best_candidate(team, model, {1: distances}).ratio
        # Rays no robot visits tie at an infinite ratio.
        assert best_candidate(team, model, {3: distances, 2: distances}).ray == 2
        scalar = Adversary(line_problem(2, 1)).best_response(team, 5.0, engine="scalar")
        vectorized = Adversary(line_problem(2, 1)).best_response(team, 5.0)
        assert vectorized.target == scalar.target
        assert vectorized.ratio == scalar.ratio

    def test_detection_outcomes_keep_target_order(self):
        team = [excursion_trajectory([(0, 3.0), (1, 4.0)]), straight_trajectory(1, 9.0)]
        targets = [RayPoint(1, 2.0), RayPoint(0, 1.0), RayPoint(2, 1.0), RayPoint(0, 0.0)]
        outcomes = detection_outcomes(team, targets, fault_model_for(line_problem(2, 1)))
        assert [outcome.target for outcome in outcomes] == targets
        assert [outcome.confirming_robot for outcome in outcomes] == [0, None, None, 1]


class TestTeamMemo:
    def test_one_off_teams_do_not_evict_memoized_ones(self):
        _compiled_team.cache_clear()
        problem = ray_problem(3, 2, 1)
        strategy = RoundRobinGeometricStrategy(problem)
        evaluate_strategy(strategy, 1e3)
        shared = compiled_team(strategy.materialise(1e3))
        before = _compiled_team.cache_info()
        assert before.currsize >= 1

        # Sampled schedules under the scalar engine, and the sampled
        # trajectories fed to the vectorized kernels directly.
        randomized = RandomizedSingleRobotRayStrategy(3)
        monte_carlo_ratio_report(
            randomized, [(0, 5.0), (2, 50.0)], num_samples=20, horizon=100.0,
            engine="scalar",
        )
        sampled = [one_off_excursion_trajectory([(0, 1.5), (1, 3.0), (2, 6.0)])]
        best_candidate(sampled, fault_model_for(problem), {0: [1.0, 2.0]})
        # Straight trajectories rebuilt at every horizon.
        for horizon in np.linspace(10.0, 500.0, 2 * before.maxsize):
            evaluate_strategy(TrivialStraightStrategy(ray_problem(2, 2, 0)), horizon)

        assert _compiled_team.cache_info().currsize == before.currsize
        assert _compiled_team.cache_info().misses == before.misses
        assert compiled_team(strategy.materialise(1e3)) is shared
        assert _compiled_team.cache_info().hits == before.hits + 1
