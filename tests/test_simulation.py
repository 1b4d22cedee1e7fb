"""Tests for :mod:`repro.simulation` — detection, competitive ratio, timelines."""

from __future__ import annotations

import math

import pytest

from repro.core.bounds import crash_line_ratio
from repro.core.problem import line_problem, ray_problem
from repro.exceptions import (
    InvalidProblemError,
    InvalidStrategyError,
    TargetNotDetectedError,
)
from repro.geometry.rays import RayPoint
from repro.geometry.trajectory import excursion_trajectory, straight_trajectory
from repro.simulation.competitive import (
    evaluate_strategy,
    evaluate_trajectories,
    grid_targets,
    ratio_profile,
)
from repro.simulation.detection import detect
from repro.simulation.timeline import build_timeline
from repro.strategies.geometric import RoundRobinGeometricStrategy
from repro.strategies.single_robot import DoublingLineStrategy


class TestDetect:
    def test_fault_free_detection(self):
        problem = line_problem(2, 0)
        trajectories = [straight_trajectory(0, 10.0), straight_trajectory(1, 10.0)]
        outcome = detect(trajectories, RayPoint(0, 4.0), problem)
        assert outcome.detected
        assert outcome.detection_time == pytest.approx(4.0)
        assert outcome.ratio == pytest.approx(1.0)
        assert outcome.confirming_robot == 0
        assert outcome.faulty_robots == ()

    def test_crash_fault_detection_needs_second_visit(self, line_3_1):
        trajectories = [
            straight_trajectory(0, 10.0),
            excursion_trajectory([(1, 2.0), (0, 10.0)]),
            straight_trajectory(1, 10.0),
        ]
        outcome = detect(trajectories, RayPoint(0, 4.0), line_3_1)
        # Robot 0 arrives at t=4 but is silenced; robot 1 arrives at 4 + 4 = 8.
        assert outcome.detection_time == pytest.approx(8.0)
        assert outcome.faulty_robots == (0,)
        assert outcome.confirming_robot == 1

    def test_undetected_target(self, line_3_1):
        trajectories = [
            straight_trajectory(0, 10.0),
            straight_trajectory(1, 10.0),
            straight_trajectory(1, 10.0),
        ]
        outcome = detect(trajectories, RayPoint(0, 4.0), line_3_1)
        assert not outcome.detected
        assert outcome.detection_time == math.inf

    def test_undetected_target_raises_when_required(self, line_3_1):
        trajectories = [
            straight_trajectory(0, 10.0),
            straight_trajectory(1, 10.0),
            straight_trajectory(1, 10.0),
        ]
        with pytest.raises(TargetNotDetectedError):
            detect(trajectories, RayPoint(0, 4.0), line_3_1, require_detection=True)

    def test_visits_are_recorded(self, line_3_1, geometric_3_1):
        trajectories = geometric_3_1.trajectories(50.0)
        outcome = detect(trajectories, RayPoint(1, 7.0), line_3_1)
        assert len(outcome.visits) >= 2
        times = [visit.time for visit in outcome.visits]
        assert times == sorted(times)


class TestEvaluate:
    def test_wrong_trajectory_count_rejected(self, line_3_1):
        with pytest.raises(InvalidStrategyError):
            evaluate_trajectories(
                [straight_trajectory(0, 5.0)], problem=line_3_1, horizon=5.0
            )

    def test_result_fields(self, geometric_3_1):
        result = evaluate_strategy(geometric_3_1, horizon=100.0)
        assert result.horizon == 100.0
        assert result.num_targets_evaluated > 0
        assert result.theoretical_ratio == pytest.approx(crash_line_ratio(3, 1))
        assert result.within_guarantee

    def test_within_guarantee_none_when_unknown(self, line_3_1):
        trajectories = RoundRobinGeometricStrategy(line_3_1).trajectories(50.0)
        result = evaluate_trajectories(trajectories, problem=line_3_1, horizon=50.0)
        assert result.theoretical_ratio is None
        assert result.within_guarantee is None

    def test_grid_targets_never_beat_breakpoint_supremum(self, line_3_1, geometric_3_1):
        """Defence in depth: a dense grid cannot exceed the exact supremum."""
        horizon = 300.0
        exact = evaluate_strategy(geometric_3_1, horizon).ratio
        grid = grid_targets(2, 1.0, horizon, points_per_ray=500)
        with_grid = evaluate_strategy(geometric_3_1, horizon, extra_targets=grid).ratio
        assert with_grid <= exact + 1e-9

    def test_grid_targets_validation(self):
        with pytest.raises(TargetNotDetectedError):
            grid_targets(2, 5.0, 1.0)

    def test_grid_targets_count_and_range(self):
        targets = grid_targets(3, 1.0, 100.0, points_per_ray=50)
        assert len(targets) == 150
        assert all(1.0 <= t.distance <= 100.0 for t in targets)

    def test_uniform_grid(self):
        targets = grid_targets(1, 1.0, 10.0, points_per_ray=10, geometric=False)
        distances = [t.distance for t in targets]
        assert distances[0] == pytest.approx(1.0)
        assert distances[-1] == pytest.approx(10.0)


class TestRatioProfile:
    def test_profile_is_bounded_by_guarantee(self):
        strategy = DoublingLineStrategy()
        outcomes = ratio_profile(strategy, horizon=200.0, points_per_ray=100)
        assert len(outcomes) == 200
        assert all(outcome.ratio <= 9.0 + 1e-9 for outcome in outcomes)

    def test_profile_reaches_near_the_worst_case(self, geometric_3_1):
        outcomes = ratio_profile(geometric_3_1, horizon=500.0, points_per_ray=400)
        best = max(outcome.ratio for outcome in outcomes)
        # The dense profile should come close to (but not exceed) the bound.
        assert best <= crash_line_ratio(3, 1) + 1e-9
        assert best > crash_line_ratio(3, 1) - 1.0


class TestTimeline:
    def test_event_ordering_and_kinds(self, line_3_1, geometric_3_1):
        trajectories = geometric_3_1.trajectories(50.0)
        timeline = build_timeline(trajectories, RayPoint(0, 5.0), line_3_1)
        times = [event.time for event in timeline.events]
        assert times == sorted(times)
        kinds = {event.kind for event in timeline.events}
        assert "visit" in kinds
        assert "confirm" in kinds
        assert timeline.detected

    def test_confirm_is_last_event(self, line_3_1, geometric_3_1):
        trajectories = geometric_3_1.trajectories(50.0)
        timeline = build_timeline(trajectories, RayPoint(0, 5.0), line_3_1)
        assert timeline.events[-1].kind == "confirm"
        assert timeline.events[-1].time == pytest.approx(timeline.detection_time)

    def test_stop_at_confirmation_truncates(self, line_3_1, geometric_3_1):
        trajectories = geometric_3_1.trajectories(50.0)
        truncated = build_timeline(
            trajectories, RayPoint(0, 5.0), line_3_1, stop_at_confirmation=True
        )
        full = build_timeline(
            trajectories, RayPoint(0, 5.0), line_3_1, stop_at_confirmation=False
        )
        assert len(full.events) >= len(truncated.events)
        assert all(
            event.time <= truncated.detection_time + 1e-9 for event in truncated.events
        )

    def test_visit_count_matches_required(self, line_3_1, geometric_3_1):
        trajectories = geometric_3_1.trajectories(50.0)
        timeline = build_timeline(trajectories, RayPoint(0, 5.0), line_3_1)
        visits = timeline.of_kind("visit")
        # With f = 1 the confirmation happens at the second distinct visit.
        assert len(visits) == 2

    def test_until_filter(self, line_3_1, geometric_3_1):
        trajectories = geometric_3_1.trajectories(50.0)
        timeline = build_timeline(trajectories, RayPoint(0, 5.0), line_3_1)
        midpoint = timeline.detection_time / 2
        assert all(event.time <= midpoint for event in timeline.until(midpoint))

    def test_render_truncation(self, line_3_1, geometric_3_1):
        trajectories = geometric_3_1.trajectories(50.0)
        timeline = build_timeline(trajectories, RayPoint(0, 5.0), line_3_1)
        rendered = timeline.render(limit=2)
        assert "more events" in rendered or len(timeline.events) <= 2

    def test_render_rejects_negative_limit(self, line_3_1, geometric_3_1):
        trajectories = geometric_3_1.trajectories(50.0)
        timeline = build_timeline(trajectories, RayPoint(0, 5.0), line_3_1)
        assert timeline.render(limit=0).startswith("... (")
        with pytest.raises(InvalidProblemError, match="non-negative"):
            timeline.render(limit=-3)

    def test_undetected_timeline(self, line_3_1):
        trajectories = [
            straight_trajectory(0, 10.0),
            straight_trajectory(1, 10.0),
            straight_trajectory(1, 10.0),
        ]
        timeline = build_timeline(
            trajectories, RayPoint(0, 5.0), line_3_1, stop_at_confirmation=False
        )
        assert not timeline.detected
        assert not timeline.of_kind("confirm")

    def test_describe_contains_kind(self, line_3_1, geometric_3_1):
        trajectories = geometric_3_1.trajectories(50.0)
        timeline = build_timeline(trajectories, RayPoint(0, 5.0), line_3_1)
        description = timeline.events[0].describe()
        assert timeline.events[0].kind in description
