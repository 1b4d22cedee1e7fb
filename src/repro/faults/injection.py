"""Random (non-adversarial) fault injection.

The paper's competitive ratios are worst-case: the adversary chooses both
the target and the faulty robots after seeing the strategy.  In practice
faults are often random, and a natural question for a user of the library is
how much slack the adversarial bound leaves on average.  This module
injects *uniformly random* crash-fault sets and measures the resulting
detection ratios, so that average-case behaviour can be compared against
the adversarial guarantee:

* every random-fault ratio is at most the adversarial ratio for the same
  target (the adversarial fault set dominates any fixed one);
* the mean over fault sets is typically well below the bound — quantified
  by :func:`simulate_random_faults` and asserted in the failure-injection
  tests.

Seeding and reproducibility
---------------------------
All randomness flows through an explicit :class:`numpy.random.Generator`
(built from the ``seed`` argument by
:func:`repro.simulation.monte_carlo.as_generator`); a fixed seed yields a
bit-identical report.  Trials are sampled *once* as matrices
(:func:`repro.simulation.monte_carlo.sample_fault_trials`) and then
evaluated by either engine — ``engine="vectorized"`` (default, one batched
pass over the compiled arrival arrays) or ``engine="scalar"`` (the
per-trial reference loop) — so the two engines see identical draws and are
differentially testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.problem import SearchProblem
from ..exceptions import InvalidProblemError
from ..geometry.compiled import TargetPool
from ..geometry.rays import RayPoint
from ..geometry.trajectory import Trajectory
from ..geometry.visits import first_visits, order_statistic_times
from ..simulation.engine import DEFAULT_ENGINE, VECTORIZED_ENGINE, validate_engine
from ..simulation.monte_carlo import (
    FaultTrialBatch,
    SeedLike,
    SequentialEstimator,
    TrialStatistics,
    as_generator,
    fault_detection_times,
    iter_chunk_seeds,
    sample_fault_trials,
    target_arrival_matrix,
    trial_detection_time,
)
from ..strategies.base import Strategy

__all__ = [
    "RandomFaultTrial",
    "FaultInjectionReport",
    "detection_time_with_faults",
    "detection_time_with_crash_times",
    "sample_spread_targets",
    "simulate_random_faults",
]


def detection_time_with_faults(
    trajectories: Sequence[Trajectory],
    target: RayPoint,
    faulty_robots: Sequence[int],
) -> float:
    """Detection time when a *fixed* set of robots is crash-faulty.

    The target is confirmed at the first visit by a robot outside
    ``faulty_robots`` (``math.inf`` if no healthy robot ever reaches it).
    """
    faulty = set(faulty_robots)
    for visit in first_visits(trajectories, target):
        if visit.robot not in faulty:
            return visit.time
    return math.inf


def detection_time_with_crash_times(
    trajectories: Sequence[Trajectory],
    target: RayPoint,
    crash_times: Sequence[float],
) -> float:
    """Detection time when each robot reports visits only up to a cut-off.

    ``crash_times[r]`` is robot ``r``'s report cut-off: its visit counts
    when the arrival is no later than the cut-off (``inf`` for a healthy
    robot, 0 for a classically silent crash fault).  This is the scalar
    reference semantics of the ``"uniform"`` crash model of
    :func:`repro.simulation.monte_carlo.sample_fault_trials`.
    """
    if len(crash_times) != len(trajectories):
        raise InvalidProblemError(
            f"need one crash time per robot: got {len(crash_times)} "
            f"for {len(trajectories)} trajectories"
        )
    return trial_detection_time(trajectories, target, crash_times)


@dataclass(frozen=True)
class RandomFaultTrial:
    """One fault-injection trial: the sampled fault set, target and outcome."""

    target: RayPoint
    faulty_robots: Tuple[int, ...]
    detection_time: float
    ratio: float


@dataclass(init=False, eq=False)
class FaultInjectionReport:
    """Aggregate of a fault-injection campaign.

    ``adversarial_ratio`` is the worst-case ratio over the same targets with
    the adversarial fault assignment, for comparison.  ``engine`` records
    which evaluation path produced the detection times.

    A campaign keeps its evaluated chunks as columns — each chunk's
    :class:`~repro.simulation.monte_carlo.FaultTrialBatch` (target indices
    and fault matrix) and its detection times — plus one ratio column,
    ``detection_times / distances[target_indices]``, the same IEEE division
    as each trial's ``detection_time / target.distance``.  The summary
    statistics read the ratio column; the per-trial :attr:`trials` records
    are built on first access.  Constructing a report from a list of
    :class:`RandomFaultTrial` records works as well.
    """

    adversarial_ratio: float
    engine: str = DEFAULT_ENGINE
    #: ``None`` for a fixed-count campaign; for an adaptive campaign, True
    #: when the target standard error was reached before the trial budget.
    converged: Optional[bool] = None

    def __init__(
        self,
        trials: Sequence[RandomFaultTrial],
        adversarial_ratio: float,
        engine: str = DEFAULT_ENGINE,
        converged: Optional[bool] = None,
    ) -> None:
        self._trials: Optional[List[RandomFaultTrial]] = list(trials)
        self._chunks: Tuple[Tuple[FaultTrialBatch, np.ndarray], ...] = ()
        self._ratios = np.asarray([trial.ratio for trial in self._trials], dtype=float)
        self.adversarial_ratio = adversarial_ratio
        self.engine = engine
        self.converged = converged

    @classmethod
    def _from_chunks(
        cls,
        chunks: Sequence[Tuple[FaultTrialBatch, np.ndarray]],
        adversarial_ratio: float,
        engine: str,
        converged: Optional[bool] = None,
    ) -> "FaultInjectionReport":
        """A report over evaluated ``(batch, detection_times)`` chunks."""
        report = cls([], adversarial_ratio, engine=engine, converged=converged)
        report._trials = None
        report._chunks = tuple(chunks)
        report._ratios = np.concatenate(
            [_ratio_column(batch, times) for batch, times in report._chunks]
        )
        return report

    @property
    def trials(self) -> List[RandomFaultTrial]:
        """Per-trial records in trial order, built once on first access."""
        if self._trials is None:
            self._trials = [
                trial
                for batch, times in self._chunks
                for trial in _trials_from_batch(batch, times)
            ]
        return self._trials

    @property
    def mean_ratio(self) -> float:
        """Average ratio over all trials (``inf`` if any trial never detects)."""
        if not self._ratios.size:
            return math.nan
        # Python's left-to-right float sum, not NumPy's pairwise one.
        return sum(self._ratios.tolist()) / self._ratios.size

    @property
    def max_ratio(self) -> float:
        """Worst ratio observed across the random trials."""
        if not self._ratios.size:
            return math.nan
        return max(self._ratios.tolist())

    @property
    def slack(self) -> float:
        """How much head-room the adversarial bound leaves on average."""
        return self.adversarial_ratio - self.mean_ratio

    @cached_property
    def statistics(self) -> TrialStatistics:
        """Rich trial statistics (mean, standard error, quantiles, batches).

        Computed once from the ratio column and cached on the report.
        """
        return TrialStatistics.from_sample(self._ratios)

    @property
    def std_error(self) -> float:
        """Standard error of the mean ratio."""
        return self.statistics.std_error

    def to_dict(self) -> dict:
        """Summary dict (trial statistics, not the raw trial list).

        The stochastic columns mirror
        :class:`repro.analysis.sweep.StochasticSweepRow`, so a serialised
        report is directly comparable to a serial sweep row.
        """
        statistics = self.statistics
        return {
            "num_trials": statistics.num_trials,
            "trials_used": statistics.num_trials,
            "converged": self.converged,
            "adversarial_ratio": self.adversarial_ratio,
            "mean_ratio": statistics.mean,
            "std_error": statistics.std_error,
            "quantile_95": statistics.quantile(0.95),
            "max_ratio": statistics.maximum,
            "slack": self.adversarial_ratio - statistics.mean,
            "engine": self.engine,
            "statistics": statistics.to_dict(),
        }

    def quantile(self, q: float) -> float:
        """Empirical ``q``-quantile of the trial ratios (0 <= q <= 1)."""
        if not 0.0 <= q <= 1.0:
            raise InvalidProblemError(f"quantile must be in [0, 1], got {q}")
        if not self._ratios.size:
            return math.nan
        ordered = sorted(self._ratios.tolist())
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


def sample_spread_targets(
    rng: np.random.Generator,
    num_rays: int,
    horizon: float,
    count: int = 32,
) -> TargetPool:
    """Sample targets geometrically spread over ``[1, horizon]`` on random rays.

    The distance exponent is uniform, so target magnitudes cover every
    decade of the horizon equally — the spread the default fault-injection
    campaign draws its target pool from.  The pool is two columns; each
    distance is Python's ``10.0 ** exponent`` clamped to ``[1, horizon]``,
    and indexing or iterating the pool gives :class:`RayPoint` s.
    """
    if count < 1:
        raise InvalidProblemError("need at least one target")
    if num_rays < 1:
        raise InvalidProblemError(f"need at least one ray, got {num_rays}")
    if not math.isfinite(horizon):
        raise InvalidProblemError(f"horizon must be finite, got {horizon}")
    if horizon < 1.0:
        raise InvalidProblemError(f"horizon must be at least 1, got {horizon}")
    top = math.log10(max(horizon, 10.0))
    # Two vector draws: every exponent first, then every ray.
    exponents = rng.random(count) * top
    rays = rng.integers(0, num_rays, size=count)
    distances = [
        min(horizon, max(1.0, 10.0**exponent)) for exponent in exponents.tolist()
    ]
    return TargetPool(rays=rays, distances=np.array(distances, dtype=float))


def _ratio_column(batch: FaultTrialBatch, detection_times: np.ndarray) -> np.ndarray:
    """Every trial's ``detection_time / target.distance``, as one array."""
    return detection_times / batch.targets.distances[batch.target_indices]


def _adversarial_ratio(
    adversary,
    trajectories: Sequence[Trajectory],
    targets: TargetPool,
    arrivals: Optional[np.ndarray],
) -> float:
    """The adversary's worst ratio over a fixed target pool.

    With the pool's arrival matrix (the vectorized engine) and an
    order-statistic fault model, the maximum comes from one batched order
    statistic over its columns; otherwise (the scalar engine, or a fault
    model without an order-statistic confirmation rule) the per-target
    ``response_at`` loop stays the oracle.  Both divide the same arrival
    times by the same distances, so they agree exactly.
    """
    from ..simulation.engine import supports_vectorized

    if arrivals is not None and supports_vectorized(adversary.fault_model):
        confirmations = order_statistic_times(
            arrivals, adversary.fault_model.required_visits
        )
        return float(np.max(confirmations / targets.distances))
    return max(adversary.response_at(trajectories, target).ratio for target in targets)


def _trials_from_batch(
    batch: FaultTrialBatch, detection_times: np.ndarray
) -> List[RandomFaultTrial]:
    """Materialise per-trial records from one evaluated batch."""
    trials: List[RandomFaultTrial] = []
    for trial in range(batch.num_trials):
        target = batch.target(trial)
        detection_time = float(detection_times[trial])
        trials.append(
            RandomFaultTrial(
                target=target,
                faulty_robots=batch.faulty_robots(trial),
                detection_time=detection_time,
                ratio=detection_time / target.distance,
            )
        )
    return trials


def simulate_random_faults(
    strategy: Strategy,
    horizon: float,
    num_trials: int = 200,
    seed: SeedLike = 0,
    targets: Optional[Union[TargetPool, Sequence[RayPoint]]] = None,
    engine: str = DEFAULT_ENGINE,
    crash_model: str = "silent",
    target_se: Optional[float] = None,
    max_trials: Optional[int] = None,
    chunk_trials: Optional[int] = None,
    on_chunk: Optional[Callable[[int, int, int, float], None]] = None,
) -> FaultInjectionReport:
    """Run a random fault-injection campaign against a strategy.

    Each trial samples a uniformly random set of ``f`` faulty robots and a
    target (uniformly among the provided targets, or geometrically spread
    over ``[1, horizon]`` on random rays when none are given), then records
    the detection ratio with that fixed fault set.  ``engine`` selects the
    batched (``"vectorized"``, default) or per-trial (``"scalar"``)
    evaluation path over the *same* seeded draws; ``crash_model`` is
    ``"silent"`` (faulty robots never report) or ``"uniform"`` (faulty
    robots report visits up to a uniform random cut-off).

    Setting any of ``target_se``/``max_trials``/``chunk_trials`` switches
    to *adaptive* (sequential) estimation: trials are evaluated in seeded
    chunks (per-chunk streams from :func:`iter_chunk_seeds`) and the run
    stops as soon as the sample's standard error reaches ``target_se``, or
    after ``max_trials`` (default ``num_trials``) regardless.
    ``chunk_trials`` defaults to an eighth of the budget.  The chunk
    schedule is a pure function of the spec, so adaptive runs are exactly
    as reproducible as fixed-count ones; with all three unset the legacy
    single-draw path runs unchanged, bit-identical to earlier versions.
    ``on_chunk(index, size, trials_used, std_error)`` is invoked after
    each evaluated chunk (telemetry hook; never affects results).
    """
    problem: SearchProblem = strategy.problem
    if num_trials < 1:
        raise InvalidProblemError("need at least one trial")
    adaptive = (
        target_se is not None or max_trials is not None or chunk_trials is not None
    )
    engine = validate_engine(engine)
    rng = as_generator(seed)
    trajectories = strategy.materialise(horizon)

    if targets is None:
        targets = sample_spread_targets(rng, problem.num_rays, horizon)
    else:
        if not targets:
            raise InvalidProblemError("need at least one target to sample from")
        targets = TargetPool.of(targets)
        if (targets.distances <= 0).any():
            raise InvalidProblemError(
                "fault-injection targets must lie at a positive distance"
            )

    # One arrival matrix over the target pool serves the adversarial
    # reference and every chunk's detection.
    arrivals = (
        target_arrival_matrix(trajectories, targets)
        if engine == VECTORIZED_ENGINE
        else None
    )
    from .adversary import Adversary

    adversarial_ratio = _adversarial_ratio(
        Adversary(problem), trajectories, targets, arrivals
    )

    if not adaptive:
        batch: FaultTrialBatch = sample_fault_trials(
            rng,
            num_trials=num_trials,
            num_robots=problem.num_robots,
            num_faulty=problem.num_faulty,
            targets=targets,
            crash_model=crash_model,
            horizon=horizon,
        )
        detection_times = fault_detection_times(
            trajectories, batch, engine=engine, arrivals=arrivals
        )
        return FaultInjectionReport._from_chunks(
            [(batch, detection_times)], adversarial_ratio, engine
        )

    estimator = SequentialEstimator(
        max_trials=max_trials if max_trials is not None else num_trials,
        chunk_trials=chunk_trials,
        target_se=target_se,
    )
    chunk_seeds = iter_chunk_seeds(seed)
    chunks: List[Tuple[FaultTrialBatch, np.ndarray]] = []
    chunk_index = 0
    while True:
        size = estimator.next_chunk()
        if size == 0:
            break
        chunk_batch = sample_fault_trials(
            as_generator(next(chunk_seeds)),
            num_trials=size,
            num_robots=problem.num_robots,
            num_faulty=problem.num_faulty,
            targets=targets,
            crash_model=crash_model,
            horizon=horizon,
        )
        chunk_times = fault_detection_times(
            trajectories, chunk_batch, engine=engine, arrivals=arrivals
        )
        std_error = estimator.add_chunk(_ratio_column(chunk_batch, chunk_times))
        chunks.append((chunk_batch, chunk_times))
        if on_chunk is not None:
            on_chunk(chunk_index, size, estimator.trials_used, std_error)
        chunk_index += 1
    return FaultInjectionReport._from_chunks(
        chunks, adversarial_ratio, engine, converged=estimator.converged
    )
