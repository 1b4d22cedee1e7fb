"""Bit-identity of the cold engine path's shortcuts.

The cold path avoids rebuilding per-scenario Python objects, and each
shortcut must be invisible in the results:

* the process-wide trajectory memo behind ``excursion_trajectory`` and
  ``zigzag_trajectory`` (a hit shares an immutable ``Trajectory``);
* columnar fault-injection reports (statistics from one ratio column, the
  per-trial records built only when asked for);
* the batched adversarial reference of ``simulate_random_faults``;
* the target sampler's cheaper uniform draw and the vectorized batch
  means of ``TrialStatistics``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.sweep import interesting_grid
from repro.core.problem import line_problem, ray_problem
from repro.exceptions import InvalidProblemError, InvalidStrategyError
from repro.faults.adversary import Adversary
from repro.faults.injection import (
    FaultInjectionReport,
    RandomFaultTrial,
    sample_spread_targets,
    simulate_random_faults,
)
from repro.geometry import trajectory as trajectory_module
from repro.geometry.rays import RayPoint
from repro.geometry.trajectory import (
    TRAJECTORY_MEMO_SIZE,
    Excursion,
    Segment,
    Trajectory,
    excursion_trajectory,
    one_off_excursion_trajectory,
    zigzag_trajectory,
)
from repro.simulation.monte_carlo import (
    TrialStatistics,
    _batch_means,
    as_generator,
    fault_detection_times,
    sample_fault_trials,
)
from repro.strategies.cyclic import CyclicStrategy
from repro.strategies.geometric import (
    RoundRobinGeometricStrategy,
    ZigzagGeometricLineStrategy,
)
from repro.strategies.naive import PartitionStrategy
from repro.strategies.optimal import optimal_strategy
from repro.strategies.single_robot import DoublingLineStrategy, SingleRobotRayStrategy

HORIZONS = (1e2, 1e3, 1e4, 1e5)


# ----------------------------------------------------------------------
# Trajectory memo
# ----------------------------------------------------------------------
def _memo_strategies():
    return [
        RoundRobinGeometricStrategy(ray_problem(2, 3, 1)),
        RoundRobinGeometricStrategy(ray_problem(3, 4, 1)),
        CyclicStrategy(ray_problem(3, 2, 0)),
        SingleRobotRayStrategy(num_rays=3),
        DoublingLineStrategy(),
        ZigzagGeometricLineStrategy(line_problem(3, 1)),
        PartitionStrategy(ray_problem(4, 3, 0)),
    ]


def _eager_excursion_trajectory(excursions):
    """An excursion schedule built segment by segment, without the memo."""
    segments = []
    t = 0.0
    for ray, radius in excursions:
        segments.append(Segment(t, t + radius, ray, 0.0, radius))
        segments.append(Segment(t + radius, t + 2 * radius, ray, radius, 0.0))
        t += 2 * radius
    return Trajectory(segments)


def _assert_same_trajectory(result, reference):
    # The arrival pieces first: the memo's excursion trajectories answer
    # these without building their segments.
    assert result.rays_visited() == reference.rays_visited()
    for ray in reference.rays_visited() + [max(reference.rays_visited()) + 1]:
        assert result.arrival_pieces(ray) == reference.arrival_pieces(ray)
        assert result.arrival_breakpoints(ray, 1.0) == reference.arrival_breakpoints(ray, 1.0)
        frontiers, reaches, _offsets = reference.arrival_pieces(ray)
        for distance in [0.0, 0.5, 1.0, 3.3] + frontiers + reaches:
            for probe in (distance, distance * (1 + 1e-9)):
                assert result.first_arrival_time(ray, probe) == (
                    reference.first_arrival_time(ray, probe)
                )
        compiled, expected = result.compiled().ray(ray), reference.compiled().ray(ray)
        if expected is None:
            assert compiled is None
        else:
            for name in ("breakpoints", "reaches", "offsets"):
                assert getattr(compiled, name).tolist() == getattr(expected, name).tolist()
    assert result.segments == reference.segments
    assert result.total_time == reference.total_time
    for t in (0.0, 0.7, reference.total_time / 3, reference.total_time * 2):
        assert result.position(t) == reference.position(t)


@pytest.fixture
def recorded_builds(monkeypatch):
    """Every (builder, arguments, result) the memoized constructors serve."""
    calls = []
    for name in ("_excursion_trajectory", "_zigzag_trajectory"):
        memoized = getattr(trajectory_module, name)

        def record(*args, _memoized=memoized):
            result = _memoized(*args)
            calls.append((_memoized, args, result))
            return result

        monkeypatch.setattr(trajectory_module, name, record)
    return calls


class TestTrajectoryMemo:
    @pytest.mark.parametrize("strategy", _memo_strategies(), ids=lambda s: s.name)
    @pytest.mark.parametrize("horizon", [1e2, 1e4])
    def test_memoized_builds_match_unmemoized(self, recorded_builds, strategy, horizon):
        trajectories = strategy.trajectories(horizon)
        served = {id(result) for _builder, _args, result in recorded_builds}
        memoized = [t for t in trajectories if id(t) in served]
        assert memoized
        # Every trajectory the memo served equals an unmemoized build: an
        # eager ``Trajectory`` of explicit segments for excursion schedules
        # (whose memoized form defers its segments), a fresh build for
        # zigzags.
        for builder, args, result in recorded_builds:
            if builder is trajectory_module._excursion_trajectory:
                reference = _eager_excursion_trajectory(*args)
            else:
                reference = builder.__wrapped__(*args)
            assert reference is not result
            _assert_same_trajectory(result, reference)
        # A second materialisation serves the very same objects.
        again = strategy.trajectories(horizon)
        for first, second in zip(trajectories, again):
            if id(first) in served:
                assert second is first

    def test_excursions_and_pairs_share_a_key(self):
        pairs = [(0, 0.5), (1, 1.25), (0, 3.0), (1, 7.5)]
        as_tuples = excursion_trajectory(pairs)
        as_objects = excursion_trajectory(Excursion(ray, radius) for ray, radius in pairs)
        as_numpy = excursion_trajectory(
            [(np.int64(ray), np.float64(radius)) for ray, radius in pairs]
        )
        as_ints = excursion_trajectory([(0, 0.5), (1, 1.25), (0, 3), (1, 7.5)])
        assert as_objects is as_tuples
        assert as_numpy is as_tuples
        assert as_ints is as_tuples
        assert excursion_trajectory(list(pairs)) is as_tuples

    def test_equal_zigzags_share_an_object(self):
        first = zigzag_trajectory([1, 2, 4, 8], start_positive=True, final_leg=16)
        assert zigzag_trajectory([1.0, 2.0, 4.0, 8.0], True, 16.0) is first
        assert zigzag_trajectory((1.0, 2.0, 4.0, 8.0), start_positive=False) is not first
        assert zigzag_trajectory([1.0, 2.0, 4.0, 8.0]) is not first

    @pytest.mark.parametrize(
        "build",
        [
            lambda: excursion_trajectory([(0, 1.0), (1, -2.0)]),
            lambda: excursion_trajectory([(0, 1.0), (1, 0.0)]),
            lambda: excursion_trajectory([(-1, 1.0)]),
            lambda: zigzag_trajectory([1.0, 0.0, 4.0]),
            lambda: zigzag_trajectory([1.0, 2.0], final_leg=-3.0),
        ],
    )
    def test_invalid_inputs_raise_on_every_call(self, build):
        for _ in range(3):
            with pytest.raises(InvalidStrategyError):
                build()

    def test_cold_path_builds_no_segments(self):
        # A memoized schedule lives for the whole process; the engines
        # answer from its arrival pieces and never make it build segments.
        from repro.simulation.competitive import evaluate_strategy

        strategy = RoundRobinGeometricStrategy(ray_problem(3, 4, 1), alpha=1.37)
        for engine in ("vectorized", "scalar"):
            evaluate_strategy(strategy, 2e3, engine=engine)
            simulate_random_faults(strategy, 2e3, num_trials=16, engine=engine)
        trajectories = strategy.materialise(2e3)
        assert all(type(t).__name__ == "_ExcursionTrajectory" for t in trajectories)
        assert not any("_segments" in vars(t) for t in trajectories)
        assert len(trajectories[0].segments) == 2 * len(strategy.excursion_schedule(0, 2e3))
        assert "_segments" in vars(trajectories[0])  # built on demand, then kept

    def test_shared_compiled_arrays_are_read_only(self):
        trajectory = excursion_trajectory([(0, 1.0), (1, 2.0), (0, 4.0)])
        compiled = excursion_trajectory([(0, 1.0), (1, 2.0), (0, 4.0)]).compiled()
        assert compiled is trajectory.compiled()
        for array in (compiled.ray(0).reaches, compiled.ray(0).offsets):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_sampled_schedules_stay_out_of_the_memo(self):
        # A scalar randomized spec builds one trajectory per sampled offset;
        # none of them may enter the memo and evict the geometric schedules
        # a following simulate spec reuses.
        from repro.service.execute import execute_spec
        from repro.service.spec import MonteCarloRandomizedSpec, SimulateSpec

        memo_info = trajectory_module._excursion_trajectory.cache_info
        simulate = SimulateSpec(num_rays=3, num_robots=4, num_faulty=1, horizon=1e3)
        execute_spec(simulate)
        before = memo_info()
        execute_spec(
            MonteCarloRandomizedSpec(num_samples=200, seed=3, engine="scalar")
        )
        after_randomized = memo_info()
        # The scalar path materialises only sampled schedules, so no
        # geometric schedule is added either.
        assert after_randomized.misses == before.misses
        assert after_randomized.currsize == before.currsize
        execute_spec(simulate)
        after_simulate = memo_info()
        assert after_simulate.misses == after_randomized.misses
        assert after_simulate.hits - after_randomized.hits == 4  # one per robot

    def test_one_off_schedule_equals_memoized_build(self):
        pairs = [(0, 0.75), (1, 1.5), (0, 3.25)]
        one_off = one_off_excursion_trajectory(pairs)
        assert one_off is not excursion_trajectory(pairs)
        assert one_off is not one_off_excursion_trajectory(pairs)
        _assert_same_trajectory(one_off, excursion_trajectory(pairs))
        _assert_same_trajectory(one_off, _eager_excursion_trajectory(pairs))
        with pytest.raises(InvalidStrategyError):
            one_off_excursion_trajectory([(0, 1.0), (1, -2.0)])

    def test_memo_is_bounded(self):
        for builder in (
            trajectory_module._excursion_trajectory,
            trajectory_module._zigzag_trajectory,
        ):
            assert builder.cache_info().maxsize == TRAJECTORY_MEMO_SIZE
        # A stream of optimal-strategy scenarios touches ~74 schedules.
        assert TRAJECTORY_MEMO_SIZE >= 74

    def test_geometric_schedule_radii_match_radius(self):
        strategy = RoundRobinGeometricStrategy(ray_problem(3, 4, 1))
        for robot in range(4):
            schedule = strategy.excursion_schedule(robot, 1e4)
            expected = [
                (ray, strategy.radius(robot, ray, cycle))
                for cycle in range(strategy.start_cycle, strategy._last_cycle(1e4) + 1)
                for ray in range(3)
            ]
            assert schedule == expected


# ----------------------------------------------------------------------
# Columnar fault-injection reports
# ----------------------------------------------------------------------
def _eager_fixed_trials(strategy, horizon, num_trials, seed, engine, crash_model):
    """The per-trial records, built eagerly the way the report used to."""
    problem = strategy.problem
    rng = as_generator(seed)
    trajectories = strategy.materialise(horizon)
    targets = sample_spread_targets(rng, problem.num_rays, horizon)
    batch = sample_fault_trials(
        rng,
        num_trials=num_trials,
        num_robots=problem.num_robots,
        num_faulty=problem.num_faulty,
        targets=targets,
        crash_model=crash_model,
        horizon=horizon,
    )
    times = fault_detection_times(trajectories, batch, engine=engine)
    trials = []
    for trial in range(batch.num_trials):
        target = batch.target(trial)
        detection_time = float(times[trial])
        trials.append(
            RandomFaultTrial(
                target=target,
                faulty_robots=batch.faulty_robots(trial),
                detection_time=detection_time,
                ratio=detection_time / target.distance,
            )
        )
    return trials


def _assert_same_summary(report, eager):
    assert report.statistics == eager.statistics
    assert report.to_dict() == eager.to_dict()
    assert report.mean_ratio == eager.mean_ratio
    assert report.max_ratio == eager.max_ratio
    for q in (0.0, 0.25, 0.5, 0.95, 1.0):
        assert report.quantile(q) == eager.quantile(q)


class TestColumnarReport:
    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    @pytest.mark.parametrize("crash_model", ["silent", "uniform"])
    def test_fixed_run_matches_eager_build(self, engine, crash_model):
        strategy = optimal_strategy(ray_problem(3, 4, 1))
        report = simulate_random_faults(
            strategy, 2e3, num_trials=96, seed=5, engine=engine, crash_model=crash_model
        )
        eager_trials = _eager_fixed_trials(strategy, 2e3, 96, 5, engine, crash_model)
        # Statistics come first, from the ratio column alone.
        eager = FaultInjectionReport(
            trials=eager_trials,
            adversarial_ratio=report.adversarial_ratio,
            engine=engine,
        )
        _assert_same_summary(report, eager)
        assert report.trials == eager_trials
        assert report.trials is report.trials  # built once, then cached

    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    @pytest.mark.parametrize("crash_model", ["silent", "uniform"])
    def test_adaptive_run_matches_eager_build(self, engine, crash_model):
        strategy = optimal_strategy(ray_problem(2, 3, 1))
        kwargs = dict(
            num_trials=64, seed=3, engine=engine, crash_model=crash_model,
            target_se=0.05, max_trials=160, chunk_trials=40,
        )
        report = simulate_random_faults(strategy, 500.0, **kwargs)
        trials = report.trials
        assert len(trials) == report.statistics.num_trials
        eager = FaultInjectionReport(
            trials=list(trials),
            adversarial_ratio=report.adversarial_ratio,
            engine=engine,
            converged=report.converged,
        )
        fresh = simulate_random_faults(strategy, 500.0, **kwargs)
        _assert_same_summary(fresh, eager)
        assert [t.ratio for t in trials] == [
            t.detection_time / t.target.distance for t in trials
        ]

    def test_public_constructor(self):
        target = RayPoint(ray=0, distance=2.0)
        trials = [
            RandomFaultTrial(target, (0,), 6.0, 3.0),
            RandomFaultTrial(target, (1,), 10.0, 5.0),
        ]
        report = FaultInjectionReport(trials=trials, adversarial_ratio=9.0)
        assert report.trials == trials
        assert report.mean_ratio == 4.0
        assert report.max_ratio == 5.0
        assert report.quantile(1.0) == 5.0
        assert report.slack == 5.0
        assert report.converged is None
        assert report.to_dict()["num_trials"] == 2
        empty = FaultInjectionReport(trials=[], adversarial_ratio=9.0)
        assert empty.trials == []
        assert np.isnan(empty.mean_ratio) and np.isnan(empty.quantile(0.5))


def _reference_spread_targets(rng, num_rays, horizon, count=32):
    """The target sampler as written with ``rng.uniform``."""
    targets = []
    for _ in range(count):
        exponent = rng.uniform(0.0, math.log10(max(horizon, 10.0)))
        targets.append(
            RayPoint(
                ray=int(rng.integers(0, num_rays)),
                distance=min(horizon, max(1.0, 10.0**exponent)),
            )
        )
    return targets


class TestSpreadTargets:
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
    @pytest.mark.parametrize("num_rays", [2, 3, 4])
    def test_same_draws_as_uniform(self, bit_generator, num_rays):
        for seed in range(20):
            for horizon in (5.0, 1e2, 3.7e3, 1e5):
                fast = np.random.Generator(bit_generator(seed))
                reference = np.random.Generator(bit_generator(seed))
                assert sample_spread_targets(fast, num_rays, horizon) == (
                    _reference_spread_targets(reference, num_rays, horizon)
                )
                # Both leave the stream in the same place.
                assert fast.random(4).tolist() == reference.random(4).tolist()
                assert fast.integers(0, 7, 5).tolist() == reference.integers(0, 7, 5).tolist()

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(InvalidProblemError):
            sample_spread_targets(np.random.default_rng(0), 2, horizon)


class TestBatchMeans:
    @pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 63, 64, 65, 257, 4099])
    @pytest.mark.parametrize("num_batches", [1, 3, 8])
    def test_equal_to_array_split_means(self, size, num_batches):
        rng = np.random.default_rng(size * 31 + num_batches)
        sample = rng.lognormal(0.0, 2.0, size)
        if size > 5:
            sample[size // 3] = np.inf
        num_batches = min(num_batches, size)
        expected = tuple(
            float(chunk.mean()) for chunk in np.array_split(sample, num_batches)
        )
        assert _batch_means(sample, num_batches) == expected
        statistics = TrialStatistics.from_sample(sample, num_batches=num_batches)
        assert statistics.batch_means == expected
        # A strided column (the randomized report's per-target samples).
        matrix = np.column_stack([sample[::-1], sample, sample * 3.0])
        column = matrix[:, 1]
        assert size == 1 or not column.flags.c_contiguous
        assert _batch_means(column, num_batches) == expected


# ----------------------------------------------------------------------
# Batched adversarial reference
# ----------------------------------------------------------------------
def _reference_strategies():
    for m, k, f in interesting_grid():
        yield optimal_strategy(ray_problem(m, k, f))
    yield DoublingLineStrategy()


class TestBatchedAdversarialReference:
    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_equal_to_scalar_loop(self, horizon):
        for strategy in _reference_strategies():
            vectorized = simulate_random_faults(
                strategy, horizon, num_trials=4, seed=17, engine="vectorized"
            )
            scalar = simulate_random_faults(
                strategy, horizon, num_trials=4, seed=17, engine="scalar"
            )
            assert vectorized.adversarial_ratio == scalar.adversarial_ratio, strategy

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_equal_on_breakpoints(self, horizon):
        # Targets exactly on (and just past) every schedule radius: where
        # the coverage tolerance decides which piece a target falls on.
        for strategy in _reference_strategies():
            problem = strategy.problem
            trajectories = strategy.materialise(horizon)
            targets = [
                RayPoint(ray=seg.ray, distance=distance)
                for trajectory in trajectories
                for seg in trajectory.segments
                if 1.0 <= seg.max_distance <= horizon
                for distance in (seg.max_distance, seg.max_distance * (1 + 1e-9))
            ][:200]
            targets.append(RayPoint(ray=problem.num_rays - 1, distance=horizon))
            vectorized = simulate_random_faults(
                strategy, horizon, num_trials=2, targets=targets, engine="vectorized"
            )
            adversary = Adversary(problem)
            expected = max(
                adversary.response_at(trajectories, target).ratio for target in targets
            )
            assert vectorized.adversarial_ratio == expected, strategy
