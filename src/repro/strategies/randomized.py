"""Randomized single-robot ray search (related work: Kao–Reif–Tate, Schuierer).

The paper's bounds are for deterministic strategies against an adaptive
adversary.  Its related-work section points to the randomized variant
(Kao, Reif & Tate for the line; Schuierer's lower bound for m rays), where
the searcher draws a random geometric *offset* before starting and the
adversary — oblivious to the coin flips — places the target first.  A
random offset smooths the worst case over a full geometric period:

* the robot performs cyclic excursions with radii ``b^(n + U)`` where
  ``U ~ Uniform[0, m)``;
* for any fixed target, the exponent gap to the next same-ray excursion is
  then uniform on ``[0, m)``, so the *expected* competitive ratio is

  .. math:: 1 + \\frac{2\\,(b^m - 1)}{m\\,(b - 1)\\,\\ln b}

  independently of the target position;
* minimising over the base ``b`` gives the optimal randomized ratio — for
  the line (``m = 2``) this is the classic ``~ 4.5911`` (base
  ``b ~ 3.59``), roughly half of the deterministic 9.

This module provides the closed-form expected ratio, the numerically
optimal base, a sampling strategy class whose concrete samples plug into the
ordinary deterministic simulator, and a Monte-Carlo estimator used by the
tests to confirm the formula.

Seeding and reproducibility
---------------------------
Offsets are drawn from an explicit seeded stream — either a
:class:`numpy.random.Generator` built from the ``seed`` argument
(:func:`repro.simulation.monte_carlo.as_generator`) or, for backwards
compatibility of :meth:`RandomizedSingleRobotRayStrategy.sample`, any
object with a ``uniform(a, b)`` method (``random.Random`` included).  The
Monte-Carlo estimator draws the full offset vector once and evaluates it
under the selected engine — ``"vectorized"`` (default, the closed-form
batched schedule of :class:`repro.simulation.monte_carlo.CyclicOffsetSchedule`)
or ``"scalar"`` (materialise a trajectory per offset) — so a fixed seed
yields identical draws for both engines and a bit-identical report per
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.bounds import single_robot_ray_ratio
from ..exceptions import InvalidProblemError, InvalidStrategyError
from ..geometry.trajectory import Trajectory, one_off_excursion_trajectory
from ..simulation.engine import DEFAULT_ENGINE, SCALAR_ENGINE, validate_engine
from ..simulation.monte_carlo import (
    DEFAULT_TRIALS_PER_BATCH,
    CyclicOffsetSchedule,
    SeedLike,
    SequentialEstimator,
    TrialStatistics,
    as_generator,
    cyclic_schedule_indices,
    iter_chunk_seeds,
)

__all__ = [
    "expected_randomized_ratio",
    "optimal_randomized_base",
    "randomized_ray_ratio",
    "RandomizedSingleRobotRayStrategy",
    "RandomizedSearchReport",
    "monte_carlo_ratio_report",
    "monte_carlo_expected_ratio",
]


def expected_randomized_ratio(base: float, num_rays: int) -> float:
    """Expected competitive ratio of the randomized cyclic strategy with base ``b``.

    ``1 + 2 (b^m - 1) / (m (b - 1) ln b)`` — the expectation is over the
    uniform exponent offset, and it is the same for every target position,
    so it is also the (oblivious-adversary) competitive ratio.
    """
    if num_rays < 2:
        raise InvalidProblemError(f"need at least 2 rays, got {num_rays}")
    if base <= 1.0:
        raise InvalidStrategyError(f"base must exceed 1, got {base}")
    m = num_rays
    return 1.0 + 2.0 * (base**m - 1.0) / (m * (base - 1.0) * math.log(base))


def optimal_randomized_base(
    num_rays: int, tolerance: float = 1e-10, max_iterations: int = 200
) -> float:
    """Base minimising :func:`expected_randomized_ratio` (golden-section search).

    For the line the optimum is ``b* ~ 3.5911``; it grows slowly with the
    number of rays.
    """
    if num_rays < 2:
        raise InvalidProblemError(f"need at least 2 rays, got {num_rays}")
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1.0 + 1e-9, 64.0
    a = hi - golden * (hi - lo)
    b = lo + golden * (hi - lo)
    fa = expected_randomized_ratio(a, num_rays)
    fb = expected_randomized_ratio(b, num_rays)
    for _ in range(max_iterations):
        if hi - lo < tolerance:
            break
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - golden * (hi - lo)
            fa = expected_randomized_ratio(a, num_rays)
        else:
            lo, a, fa = a, b, fb
            b = lo + golden * (hi - lo)
            fb = expected_randomized_ratio(b, num_rays)
    return (lo + hi) / 2.0


def randomized_ray_ratio(num_rays: int) -> float:
    """Optimal expected competitive ratio of randomized search on ``m`` rays.

    For the line this evaluates to ``~ 4.5911`` versus the deterministic 9:
    randomisation roughly halves the overhead, which is the comparison the
    E10-style ablations report.
    """
    return expected_randomized_ratio(optimal_randomized_base(num_rays), num_rays)


@dataclass(frozen=True)
class _SampledSchedule:
    """A concrete (de-randomised) excursion schedule drawn from the strategy."""

    offset: float
    excursions: Tuple[Tuple[int, float], ...]

    def trajectory(self) -> Trajectory:
        """Materialise the sampled schedule as a trajectory.

        Its radii carry a random offset, so it is built outside the
        process-wide trajectory memo.
        """
        return one_off_excursion_trajectory(self.excursions)


#: Randomness sources :meth:`RandomizedSingleRobotRayStrategy.sample` accepts:
#: a numpy Generator, any object with ``uniform(a, b)`` (``random.Random``),
#: an integer seed, or None.
OffsetSource = Union[SeedLike, "_HasUniform"]


class _HasUniform:  # pragma: no cover - typing helper only
    def uniform(self, low: float, high: float) -> float: ...


def _draw_offset(rng: OffsetSource, num_rays: int) -> float:
    """Draw one offset uniform on ``[0, m)`` from any supported source."""
    if hasattr(rng, "uniform"):
        return float(rng.uniform(0.0, float(num_rays)))  # type: ignore[union-attr]
    return float(as_generator(rng).uniform(0.0, float(num_rays)))


class RandomizedSingleRobotRayStrategy:
    """Randomized cyclic search of ``m`` rays by a single fault-free robot.

    The strategy is a *distribution* over deterministic schedules: a single
    offset ``U ~ Uniform[0, m)`` shifts every excursion exponent.  Use
    :meth:`sample` to draw concrete schedules (each one can be fed to the
    deterministic simulator), :meth:`sample_offsets` for a whole seeded
    offset vector, and :meth:`expected_ratio` for the closed form.

    Parameters
    ----------
    num_rays:
        Number of rays ``m >= 2``.
    base:
        Radius growth factor; ``None`` selects the optimal
        :func:`optimal_randomized_base`.
    """

    name = "randomized-single-robot-rays"

    def __init__(self, num_rays: int, base: Optional[float] = None) -> None:
        if num_rays < 2:
            raise InvalidProblemError(f"need at least 2 rays, got {num_rays}")
        self.num_rays = num_rays
        if base is None:
            base = optimal_randomized_base(num_rays)
        if base <= 1.0:
            raise InvalidStrategyError(f"base must exceed 1, got {base}")
        self.base = float(base)

    def expected_ratio(self) -> float:
        """Closed-form expected competitive ratio for this base."""
        return expected_randomized_ratio(self.base, self.num_rays)

    def deterministic_ratio(self) -> float:
        """The deterministic optimum for the same number of rays (for comparison)."""
        return single_robot_ray_ratio(self.num_rays)

    def sample_offsets(self, num_samples: int, seed: SeedLike = 0) -> np.ndarray:
        """Draw a seeded vector of offsets, uniform on ``[0, m)``."""
        if num_samples < 1:
            raise InvalidProblemError("need at least one sample")
        return as_generator(seed).uniform(
            0.0, float(self.num_rays), size=num_samples
        )

    def sample(
        self,
        rng: OffsetSource,
        horizon: float,
        offset: Optional[float] = None,
    ) -> _SampledSchedule:
        """Draw one concrete schedule covering targets up to ``horizon``.

        The excursion with index ``n`` (from a warm-up start below distance
        1) visits ray ``n mod m`` to radius ``base^(n + offset)`` with the
        sampled ``offset``.  ``rng`` may be a :class:`numpy.random.Generator`,
        a ``random.Random``, an integer seed, or None; it is ignored when
        ``offset`` is given explicitly.
        """
        if horizon < 1.0:
            raise InvalidProblemError(f"horizon must be at least 1, got {horizon}")
        if offset is None:
            offset = _draw_offset(rng, self.num_rays)
        if not 0.0 <= offset <= float(self.num_rays):
            raise InvalidStrategyError(
                f"offset must lie in [0, {self.num_rays}], got {offset}"
            )
        m, b = self.num_rays, self.base
        excursions = []
        for n in cyclic_schedule_indices(m, b, horizon):
            index = int(n)
            excursions.append((index % m, b ** (index + offset)))
        return _SampledSchedule(offset=float(offset), excursions=tuple(excursions))

    def schedule_plan(self, horizon: float) -> CyclicOffsetSchedule:
        """The batched closed-form evaluator for this strategy and horizon."""
        return CyclicOffsetSchedule.plan(self.num_rays, self.base, horizon)


@dataclass(frozen=True)
class RandomizedSearchReport:
    """Monte-Carlo estimate of the randomized strategy's competitive ratio.

    The oblivious adversary picks the worst target *before* the coins are
    flipped, so the estimator is the maximum over targets of the per-target
    mean ratio.  ``per_target`` keeps the full statistics of every target
    (the expectation is provably target-independent, which makes the
    per-target means a built-in consistency check).
    """

    targets: Tuple[Tuple[int, float], ...]
    per_target: Tuple[TrialStatistics, ...]
    closed_form: float
    engine: str
    seed: Optional[int]
    #: ``None`` for a fixed-count run; for an adaptive run, True when the
    #: worst target's standard error reached the requested ``target_se``.
    converged: Optional[bool] = None

    @property
    def estimate(self) -> float:
        """Maximum per-target mean ratio (the oblivious worst case)."""
        return max(stats.mean for stats in self.per_target)

    @property
    def std_error(self) -> float:
        """Standard error of the worst target's mean."""
        worst = max(self.per_target, key=lambda stats: stats.mean)
        return worst.std_error

    @property
    def num_samples(self) -> int:
        """Sampled offsets per target."""
        return self.per_target[0].num_trials

    def within_standard_errors(self, num_sigmas: float = 3.0) -> bool:
        """True when every target's mean is compatible with the closed form."""
        return all(
            stats.compatible_with(self.closed_form, num_sigmas)
            for stats in self.per_target
        )

    def to_dict(self) -> dict:
        """Plain-dict form (for JSON rendering and the service layer)."""
        return {
            "targets": [list(target) for target in self.targets],
            "closed_form": self.closed_form,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "num_samples": self.num_samples,
            "trials_used": self.num_samples,
            "converged": self.converged,
            "within_3_std_errors": self.within_standard_errors(),
            "engine": self.engine,
            "seed": self.seed,
            "per_target": [stats.to_dict() for stats in self.per_target],
        }


def _offset_ratios(
    strategy: RandomizedSingleRobotRayStrategy,
    offsets: np.ndarray,
    targets: Tuple[Tuple[int, float], ...],
    horizon: float,
    engine: str,
    trials_per_batch: int,
) -> np.ndarray:
    """The ``(offsets, targets)`` ratio matrix for one offset vector."""
    if engine == SCALAR_ENGINE:
        ratios = np.empty((offsets.size, len(targets)))
        for row, offset in enumerate(offsets):
            trajectory = strategy.sample(
                None, horizon=horizon, offset=float(offset)
            ).trajectory()
            for column, (ray, distance) in enumerate(targets):
                ratios[row, column] = (
                    trajectory.first_arrival_time(ray, distance) / distance
                )
        return ratios
    arrivals = strategy.schedule_plan(horizon).arrival_times(
        offsets, targets, trials_per_batch=trials_per_batch
    )
    return arrivals / np.asarray([d for _r, d in targets])


def monte_carlo_ratio_report(
    strategy: RandomizedSingleRobotRayStrategy,
    targets: Sequence[Tuple[int, float]],
    num_samples: int = 200,
    seed: SeedLike = 0,
    horizon: Optional[float] = None,
    engine: str = DEFAULT_ENGINE,
    trials_per_batch: int = DEFAULT_TRIALS_PER_BATCH,
    target_se: Optional[float] = None,
    max_trials: Optional[int] = None,
    chunk_trials: Optional[int] = None,
    on_chunk: Optional[Callable[[int, int, int, float], None]] = None,
) -> RandomizedSearchReport:
    """Estimate the expected competitive ratio by sampling offsets.

    For every target ``(ray, distance)`` the first-arrival ratio is averaged
    over ``num_samples`` sampled offsets.  ``engine="vectorized"`` (default)
    evaluates all (offset, target) pairs through the closed-form batched
    schedule in ``trials_per_batch`` chunks; ``engine="scalar"``
    materialises one trajectory per offset and queries it per target.  Both
    consume the same seeded offset vector and agree to 1e-9.

    Setting any of ``target_se``/``max_trials``/``chunk_trials`` switches
    to *adaptive* (sequential) sampling: offsets are drawn in seeded chunks
    (per-chunk streams from
    :func:`repro.simulation.monte_carlo.iter_chunk_seeds`) and the run
    stops once the *worst* target's standard error reaches ``target_se``,
    or after ``max_trials`` (default ``num_samples``) offsets regardless;
    ``chunk_trials`` defaults to an eighth of the budget.  The chunk
    schedule is a pure function of the arguments, so adaptive runs stay
    bit-reproducible; with all three unset the legacy single-draw path
    runs unchanged.  ``on_chunk(index, size, trials_used, std_error)``
    fires after each evaluated chunk (telemetry hook; never affects
    results).
    """
    if not targets:
        raise InvalidProblemError("need at least one target")
    if num_samples < 1:
        raise InvalidProblemError("need at least one sample")
    engine = validate_engine(engine)
    if horizon is None:
        horizon = max(distance for _ray, distance in targets) * 2.0
    adaptive = (
        target_se is not None or max_trials is not None or chunk_trials is not None
    )
    targets = tuple((int(ray), float(distance)) for ray, distance in targets)

    if not adaptive:
        offsets = strategy.sample_offsets(num_samples, seed)
        ratios = _offset_ratios(
            strategy, offsets, targets, horizon, engine, trials_per_batch
        )
        return RandomizedSearchReport(
            targets=targets,
            per_target=tuple(
                TrialStatistics.from_sample(ratios[:, j]) for j in range(len(targets))
            ),
            closed_form=strategy.expected_ratio(),
            engine=engine,
            seed=seed if isinstance(seed, int) else None,
        )

    estimator = SequentialEstimator(
        max_trials=max_trials if max_trials is not None else num_samples,
        chunk_trials=chunk_trials,
        target_se=target_se,
    )
    chunk_seeds = iter_chunk_seeds(seed)
    chunk_index = 0
    while True:
        size = estimator.next_chunk()
        if size == 0:
            break
        chunk_offsets = strategy.sample_offsets(size, next(chunk_seeds))
        std_error = estimator.add_chunk(
            _offset_ratios(
                strategy, chunk_offsets, targets, horizon, engine, trials_per_batch
            )
        )
        if on_chunk is not None:
            on_chunk(chunk_index, size, estimator.trials_used, std_error)
        chunk_index += 1
    return RandomizedSearchReport(
        targets=targets,
        per_target=estimator.statistics(),
        closed_form=strategy.expected_ratio(),
        engine=engine,
        seed=seed if isinstance(seed, int) else None,
        converged=estimator.converged,
    )


def monte_carlo_expected_ratio(
    strategy: RandomizedSingleRobotRayStrategy,
    targets: Sequence[Tuple[int, float]],
    num_samples: int = 200,
    seed: SeedLike = 0,
    horizon: Optional[float] = None,
    engine: str = DEFAULT_ENGINE,
) -> float:
    """Estimate the expected competitive ratio by sampling offsets.

    Thin wrapper over :func:`monte_carlo_ratio_report` returning only the
    point estimate: the maximum of the per-target average ratios (the
    oblivious adversary picks the worst target, then the coins are
    flipped).  With enough samples this converges to
    :meth:`RandomizedSingleRobotRayStrategy.expected_ratio` for every
    target, which the property tests check.
    """
    report = monte_carlo_ratio_report(
        strategy,
        targets,
        num_samples=num_samples,
        seed=seed,
        horizon=horizon,
        engine=engine,
    )
    return report.estimate
