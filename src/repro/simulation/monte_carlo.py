"""Batched Monte-Carlo engine: seeded RNG streams + vectorized trial evaluation.

The deterministic engine (:mod:`repro.simulation.engine`) batches the
adversary's best response; this module does the same for the library's two
*stochastic* workloads:

1. **Random fault injection** (:mod:`repro.faults.injection`) — sample whole
   matrices of fault subsets, per-robot crash times and target indices from
   one :class:`numpy.random.Generator`, then evaluate every trial's
   detection time in a single vectorized pass over the compiled per-ray
   arrival arrays (:mod:`repro.geometry.compiled`).
2. **Randomized cyclic ray search** (:mod:`repro.strategies.randomized`,
   the Kao–Reif–Tate / Schuierer related-work track) — sample a vector of
   geometric offsets and evaluate all (offset, target) arrival times with a
   closed-form batched schedule instead of materialising one trajectory per
   coin flip.

Seeding and reproducibility
---------------------------
Every public entry point threads an explicit seed (or a ready-made
:class:`numpy.random.Generator`) through :func:`as_generator`; module-level
RNG state is never touched.  A fixed seed therefore yields a bit-identical
report — the sampled fault matrices, crash times, target indices and
offsets are all drawn from the same seeded stream regardless of the
evaluation engine, which is what makes the scalar-versus-batched
differential tests (:mod:`tests.test_mc_engine_equivalence`) meaningful:
both engines consume *identical* trial draws and must agree to 1e-9.
Independent parallel streams (one per sweep row, say) come from
:func:`spawn_seeds`, which derives children via
:class:`numpy.random.SeedSequence` so the per-row results do not depend on
worker scheduling.

Memory layout
-------------
Trials are evaluated in chunks of ``trials_per_batch`` rows so peak memory
stays bounded: the fault workload materialises a ``(chunk, robots)`` slice
of the ``(robots, targets)`` arrival matrix, the offset workload a few
``(chunk,)`` vectors per target (its prefix times are in closed form).
See PERFORMANCE.md for the trade-off curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import InvalidProblemError
from ..geometry.compiled import TargetPool, compiled_team
from ..geometry.rays import RayPoint
from ..geometry.trajectory import _EPS, Trajectory
from .engine import DEFAULT_ENGINE, SCALAR_ENGINE, validate_engine

__all__ = [
    "SeedLike",
    "as_generator",
    "spawn_seeds",
    "iter_chunk_seeds",
    "SequentialEstimator",
    "TrialStatistics",
    "FaultTrialBatch",
    "sample_fault_trials",
    "target_arrival_matrix",
    "trial_detection_time",
    "fault_detection_times",
    "cyclic_schedule_indices",
    "CyclicOffsetSchedule",
    "DEFAULT_TRIALS_PER_BATCH",
]

#: Anything acceptable as a reproducible randomness source: an integer seed,
#: a ready-made Generator/SeedSequence, or None for OS entropy.
SeedLike = Union[int, np.integer, np.random.Generator, np.random.SeedSequence, None]

#: Default number of trials evaluated per chunk; bounds peak memory at a few
#: megabytes without sacrificing vectorization (see PERFORMANCE.md).
DEFAULT_TRIALS_PER_BATCH = 8192


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Normalise a seed-like value into a :class:`numpy.random.Generator`.

    Generators pass through untouched (so callers can share one stream
    across several sampling steps); everything else goes through
    :func:`numpy.random.default_rng`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(seed: SeedLike, count: int) -> List[int]:
    """Derive ``count`` independent child seeds from one root seed.

    Children are spawned through :class:`numpy.random.SeedSequence`, so the
    streams are statistically independent and — crucially for parallel
    sweeps — depend only on ``(seed, index)``, never on worker scheduling.
    Passing a Generator uses its own bit stream to derive the root entropy.
    """
    if count < 0:
        raise InvalidProblemError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(int(seed.integers(0, 2**63)))
    else:
        root = np.random.SeedSequence(seed)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in root.spawn(count)]


def iter_chunk_seeds(seed: SeedLike) -> Iterator[int]:
    """Endless deterministic stream of per-chunk child seeds.

    ``SeedSequence.spawn`` is stateful (each call advances the spawn key),
    so repeatedly spawning one child walks exactly the same child sequence
    as a single bulk spawn: chunk ``i``'s seed equals
    ``spawn_seeds(seed, n)[i]`` for every ``n > i``.  An adaptive run that
    converges after three chunks therefore consumed precisely the seeds a
    longer run would have — the chunk schedule is a pure function of the
    root seed and the stopping rule, never of how far the run got.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(int(seed.integers(0, 2**63)))
    else:
        root = np.random.SeedSequence(seed)
    while True:
        child = root.spawn(1)[0]
        yield int(child.generate_state(1, dtype=np.uint64)[0])


# ----------------------------------------------------------------------
# Trial statistics
# ----------------------------------------------------------------------
_QUANTILE_LEVELS = (0.5, 0.9, 0.95, 0.99)


def _linear_quantile(lower: float, upper: float, fraction: float) -> float:
    """np.quantile's default linear interpolation, but inf-safe.

    ``lower`` and ``upper`` are the order statistics bracketing the
    quantile's position.  NumPy's lerp turns a finite/inf bracket into
    nan; here a quantile is inf exactly when its position falls strictly
    inside the infinite tail, and finite quantiles below the tail stay
    finite.
    """
    if fraction == 0.0:
        return lower
    if not math.isfinite(lower) or not math.isfinite(upper):
        return upper
    return lower + (upper - lower) * fraction


def _quantile_positions(size: int) -> Tuple[List[int], List[float]]:
    """The ranks each quantile level reads (lower and upper, interleaved)
    and its interpolation fraction, for a sample of ``size`` values."""
    ranks: List[int] = []
    fractions: List[float] = []
    for q in _QUANTILE_LEVELS:
        position = q * (size - 1)
        lower = int(math.floor(position))
        ranks += [lower, min(lower + 1, size - 1)]
        fractions.append(position - lower)
    return ranks, fractions


def _row_means(rows: np.ndarray, width: int) -> np.ndarray:
    """Means of consecutive ``width``-value groups of every row.

    Each group is reduced along the last axis with the same pairwise
    summation as a 1-D ``group.mean()``, so the values are bit-identical.
    """
    groups = rows.reshape(rows.shape[0], rows.shape[-1] // width, width)
    return np.add.reduce(groups, axis=-1) / width


def _batch_means(rows: np.ndarray, num_batches: int) -> np.ndarray:
    """Every row's means of its ``np.array_split(row, num_batches)`` chunks.

    ``array_split`` gives the first ``size % num_batches`` chunks one extra
    element; each group of equal-length chunks is one row-wise reduction,
    bit-identical to the per-chunk ``chunk.mean()`` without a Python loop
    over chunks.
    """
    size, extra = divmod(rows.shape[-1], num_batches)
    cut = extra * (size + 1)
    return np.concatenate(
        [_row_means(rows[:, :cut], size + 1), _row_means(rows[:, cut:], size)],
        axis=1,
    )


def _standard_errors(
    rows: np.ndarray, means: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Per row: the unbiased sample deviation over ``sqrt(n)``.

    The operations of ``row.std(ddof=1) / math.sqrt(n)``, reusing the rows'
    means, with the squared deviations in ``scratch`` (an array of the rows'
    shape); 0 for single values.  Only meaningful for rows of finite values.
    """
    size = rows.shape[-1]
    if size == 1:
        return np.zeros(rows.shape[0])
    np.subtract(rows, means[:, None], out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    return np.sqrt(np.add.reduce(scratch, axis=-1) / (size - 1)) / math.sqrt(size)


@dataclass(frozen=True)
class TrialStatistics:
    """Summary statistics of one Monte-Carlo sample of ratios.

    ``std_error`` is the standard error of the mean (unbiased sample
    standard deviation over ``sqrt(n)``); ``batch_means`` are the means of
    consecutive equal-size sub-batches — their spread is a cheap
    convergence diagnostic (a drifting estimator shows up as a spread much
    larger than a few standard errors).
    """

    num_trials: int
    mean: float
    std_error: float
    minimum: float
    maximum: float
    quantiles: Tuple[Tuple[float, float], ...]
    batch_means: Tuple[float, ...]

    @classmethod
    def from_sample(cls, values: Sequence[float], num_batches: int = 8) -> "TrialStatistics":
        """Compute the statistics of a flat sample of trial ratios."""
        sample = np.asarray(values, dtype=float).reshape(1, -1)
        return cls._from_rows(sample, num_batches)[0]

    @classmethod
    def from_columns(
        cls, matrix: np.ndarray, num_batches: int = 8
    ) -> Tuple["TrialStatistics", ...]:
        """The statistics of every column of a ``(trials, columns)`` matrix.

        Column ``j``'s statistics are bit-identical to
        ``from_sample(matrix[:, j])``: the columns are summarised together
        over the matrix's contiguous transpose, whose row reductions along
        the last axis are the same pairwise sums as the 1-D ones.  The
        transpose of a column-major matrix needs no copy.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise InvalidProblemError(
                f"need a (trials, columns) matrix, got shape {matrix.shape}"
            )
        return cls._from_rows(np.ascontiguousarray(matrix.T), num_batches)

    @classmethod
    def _from_rows(
        cls, rows: np.ndarray, num_batches: int
    ) -> Tuple["TrialStatistics", ...]:
        """One instance per row of a ``(columns, trials)`` array, in one pass.

        One ``np.add.reduce`` per row gives the mean the deviations reuse,
        and one sort the order statistics: the minimum, the maximum and the
        two ranks each quantile reads.  NaN sorts last, so a row with a NaN
        has NaN for both extremes, as ``min`` and ``max`` give; a row is
        finite when both extremes are.  Only those few values per row
        become Python floats.  The sort reuses the deviations' buffer, so a
        summary allocates one array of the rows' shape.
        """
        size = rows.shape[-1]
        if size == 0:
            raise InvalidProblemError("need at least one trial to summarise")
        scratch = np.empty(rows.shape)
        with np.errstate(invalid="ignore"):
            means = np.add.reduce(rows, axis=-1) / size
            errors = _standard_errors(rows, means, scratch)
        batch_means = _batch_means(rows, max(1, min(num_batches, size)))
        np.copyto(scratch, rows)
        scratch.sort(axis=-1)
        ranks, fractions = _quantile_positions(size)
        statistics = []
        for mean, std_error, (minimum, maximum, *ranked), batches in zip(
            means.tolist(),
            errors.tolist(),
            scratch[:, [0, size - 1, *ranks]].tolist(),
            batch_means.tolist(),
        ):
            if math.isnan(maximum):
                minimum = maximum
            if not (math.isfinite(minimum) and math.isfinite(maximum)):
                std_error = math.nan
            statistics.append(
                cls(
                    num_trials=size,
                    mean=mean,
                    std_error=std_error,
                    minimum=minimum,
                    maximum=maximum,
                    quantiles=tuple(
                        (q, _linear_quantile(lower, upper, fraction))
                        for q, lower, upper, fraction in zip(
                            _QUANTILE_LEVELS, ranked[::2], ranked[1::2], fractions
                        )
                    ),
                    batch_means=tuple(batches),
                )
            )
        return tuple(statistics)

    def to_dict(self) -> dict:
        """Strict-JSON-safe dict form; inf/nan floats become strings.

        Quantiles of heavy-tailed samples are routinely infinite (a trial
        whose target is never confirmed), so every float goes through
        :func:`repro.reporting.encode_float` and :meth:`from_dict` restores
        it exactly — the round-trip is lossless including ``inf`` tails.
        """
        from ..reporting import encode_float

        return {
            "num_trials": self.num_trials,
            "mean": encode_float(self.mean),
            "std_error": encode_float(self.std_error),
            "minimum": encode_float(self.minimum),
            "maximum": encode_float(self.maximum),
            "quantiles": [[q, encode_float(v)] for q, v in self.quantiles],
            "batch_means": [encode_float(v) for v in self.batch_means],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrialStatistics":
        """Inverse of :meth:`to_dict` (bit-exact, inf/nan included)."""
        from ..reporting import decode_float

        return cls(
            num_trials=int(payload["num_trials"]),
            mean=decode_float(payload["mean"]),
            std_error=decode_float(payload["std_error"]),
            minimum=decode_float(payload["minimum"]),
            maximum=decode_float(payload["maximum"]),
            quantiles=tuple(
                (float(q), decode_float(v)) for q, v in payload["quantiles"]
            ),
            batch_means=tuple(decode_float(v) for v in payload["batch_means"]),
        )

    def quantile(self, q: float) -> float:
        """One of the precomputed quantiles (0.5, 0.9, 0.95, 0.99)."""
        for level, value in self.quantiles:
            if abs(level - q) < 1e-12:
                return value
        raise InvalidProblemError(
            f"quantile {q} not precomputed; available: {[lv for lv, _ in self.quantiles]}"
        )

    @property
    def half_width_95(self) -> float:
        """Half-width of the normal-approximation 95% confidence interval."""
        return 1.96 * self.std_error

    @property
    def batch_mean_spread(self) -> float:
        """Max minus min of the consecutive batch means (convergence check)."""
        return max(self.batch_means) - min(self.batch_means)

    def compatible_with(self, reference: float, num_sigmas: float = 3.0) -> bool:
        """True when ``reference`` lies within ``num_sigmas`` standard errors."""
        if not math.isfinite(self.std_error):
            return False
        return abs(self.mean - reference) <= num_sigmas * max(self.std_error, 1e-15)


# ----------------------------------------------------------------------
# Sequential (adaptive-precision) estimation
# ----------------------------------------------------------------------
class SequentialEstimator:
    """Accumulate seeded trial chunks until a target standard error.

    The estimator owns the *stopping rule* of an adaptive Monte-Carlo run:
    callers ask :meth:`next_chunk` how many trials to evaluate, feed the
    resulting values back through :meth:`add_chunk`, and stop when
    :attr:`done`.  The rule is a pure function of the accumulated values,
    so a fixed seed (and hence fixed chunk values) always produces the
    same chunk schedule and the same final sample — adaptive runs are as
    bit-reproducible as fixed-count ones.

    Chunks may be 1-D (one value per trial) or 2-D ``(trials, columns)``
    (one row per trial, e.g. per-target ratios); convergence is judged on
    the *worst* column's standard error, mirroring how the randomized
    report quotes the worst target.  A sample containing non-finite values
    has an undefined standard error and never converges — ``max_trials``
    bounds the run regardless.

    ``chunk_trials`` defaults to an eighth of ``max_trials`` (rounded up),
    mirroring the eight batch-mean diagnostics of
    :class:`TrialStatistics`: a run that sets only ``target_se`` still
    gets eight stopping checkpoints.
    """

    def __init__(
        self,
        max_trials: int,
        chunk_trials: Optional[int] = None,
        target_se: Optional[float] = None,
    ) -> None:
        if isinstance(max_trials, bool) or not isinstance(max_trials, int) or max_trials < 1:
            raise InvalidProblemError(
                f"max_trials must be an integer >= 1, got {max_trials!r}"
            )
        if chunk_trials is None:
            chunk_trials = -(-max_trials // 8)
        elif (
            isinstance(chunk_trials, bool)
            or not isinstance(chunk_trials, int)
            or chunk_trials < 1
        ):
            raise InvalidProblemError(
                f"chunk_trials must be an integer >= 1, got {chunk_trials!r}"
            )
        if target_se is not None:
            target_se = float(target_se)
            if not math.isfinite(target_se) or target_se <= 0.0:
                raise InvalidProblemError(
                    f"target_se must be a positive finite number, got {target_se!r}"
                )
        self.max_trials = int(max_trials)
        self.chunk_trials = int(chunk_trials)
        self.target_se = target_se
        self._chunks: List[np.ndarray] = []
        self._trials = 0
        self._converged = False

    @property
    def trials_used(self) -> int:
        """Trials accumulated so far."""
        return self._trials

    @property
    def converged(self) -> bool:
        """True when the target standard error was reached (never without one)."""
        return self._converged

    @property
    def done(self) -> bool:
        """True when the run should stop (converged or budget exhausted)."""
        return self._converged or self._trials >= self.max_trials

    def next_chunk(self) -> int:
        """Trials to evaluate next; 0 when the run is complete."""
        if self.done:
            return 0
        return min(self.chunk_trials, self.max_trials - self._trials)

    def add_chunk(self, values: Sequence[float]) -> float:
        """Accumulate one chunk of trial values; returns the current SE.

        The returned value is the worst-column standard error over
        everything accumulated so far (``nan`` while any value is
        non-finite) — the quantity the stopping rule compares against
        ``target_se``.
        """
        if self.done:
            raise InvalidProblemError("sequential run is already complete")
        chunk = np.asarray(values, dtype=float)
        if chunk.ndim not in (1, 2) or chunk.shape[0] == 0:
            raise InvalidProblemError(
                f"chunk must be a non-empty 1-D or 2-D array, got shape {chunk.shape}"
            )
        if self._chunks and chunk.ndim != self._chunks[0].ndim:
            raise InvalidProblemError("chunk dimensionality changed mid-run")
        if (
            self._chunks
            and chunk.ndim == 2
            and chunk.shape[1] != self._chunks[0].shape[1]
        ):
            raise InvalidProblemError("chunk column count changed mid-run")
        self._chunks.append(chunk)
        self._trials += int(chunk.shape[0])
        std_error = self.std_error()
        if (
            self.target_se is not None
            and math.isfinite(std_error)
            and std_error <= self.target_se
        ):
            self._converged = True
        return std_error

    def sample(self) -> np.ndarray:
        """Everything accumulated so far, concatenated in chunk order.

        Computing :meth:`TrialStatistics.from_sample` over this array is
        bit-identical to a single-shot evaluation of the same draws — the
        chunking never touches the values.
        """
        if not self._chunks:
            raise InvalidProblemError("no chunks accumulated yet")
        if len(self._chunks) == 1:
            return self._chunks[0]
        return np.concatenate(self._chunks, axis=0)

    def std_error(self) -> float:
        """Worst-column standard error of the accumulated sample.

        Matches :meth:`TrialStatistics.from_sample` per column: the
        unbiased sample deviation over ``sqrt(n)`` when every value is
        finite and ``n > 1``; ``nan`` with any non-finite value; 0 for a
        single finite trial.
        """
        rows = self._rows()
        if not np.isfinite(rows).all():
            return math.nan
        with np.errstate(invalid="ignore"):
            means = np.add.reduce(rows, axis=-1) / rows.shape[-1]
            errors = _standard_errors(rows, means, np.empty(rows.shape))
        # ``max`` keeps the first of equal or unordered values, as the
        # running ``max(worst, se)`` from 0 does.
        return max([0.0, *errors.tolist()])

    def _rows(self) -> np.ndarray:
        """The accumulated sample as ``(columns, trials)`` contiguous rows.

        The chunks' transposes are joined directly, so column-major chunks
        cost one copy.
        """
        if not self._chunks:
            raise InvalidProblemError("no chunks accumulated yet")
        rows = [
            chunk.reshape(1, -1) if chunk.ndim == 1 else chunk.T
            for chunk in self._chunks
        ]
        return np.ascontiguousarray(
            rows[0] if len(rows) == 1 else np.concatenate(rows, axis=1)
        )

    def statistics(self, num_batches: int = 8):
        """The accumulated sample as :class:`TrialStatistics`.

        A 1-D run yields one instance; a 2-D run yields a per-column tuple
        (each column summarised independently, like the randomized
        report's per-target statistics).
        """
        statistics = TrialStatistics._from_rows(self._rows(), num_batches)
        return statistics[0] if self._chunks[0].ndim == 1 else statistics


# ----------------------------------------------------------------------
# Fault-injection workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultTrialBatch:
    """One seeded batch of random-fault trials, as matrices.

    Attributes
    ----------
    targets:
        The distinct target pool trials draw from, as columns.
    target_indices:
        ``(trials,)`` integer indices into ``targets``.
    fault_matrix:
        ``(trials, robots)`` boolean matrix, True where the robot is faulty
        in that trial.
    crash_times:
        ``(trials, robots)`` report cut-offs: a robot's visit only counts
        when its arrival time is at most its cut-off.  Healthy robots have
        ``inf``; classic silent crash faults have 0 (they never report);
        the ``"uniform"`` crash model draws the cut-off uniformly in
        ``[0, horizon]`` so a faulty robot may still report early visits.
    """

    targets: TargetPool
    target_indices: np.ndarray
    fault_matrix: np.ndarray
    crash_times: np.ndarray

    @property
    def num_trials(self) -> int:
        """Number of trials in the batch."""
        return int(self.target_indices.size)

    @property
    def num_robots(self) -> int:
        """Number of robots each trial assigns faults over."""
        return int(self.fault_matrix.shape[1])

    def faulty_robots(self, trial: int) -> Tuple[int, ...]:
        """Sorted indices of the faulty robots in one trial."""
        return tuple(int(r) for r in np.flatnonzero(self.fault_matrix[trial]))

    def target(self, trial: int) -> RayPoint:
        """The target sampled for one trial."""
        return self.targets[int(self.target_indices[trial])]


def sample_fault_trials(
    rng: np.random.Generator,
    num_trials: int,
    num_robots: int,
    num_faulty: int,
    targets: Union[TargetPool, Sequence[RayPoint]],
    crash_model: str = "silent",
    horizon: Optional[float] = None,
) -> FaultTrialBatch:
    """Sample a whole batch of fault-injection trials from one stream.

    Fault subsets are uniform over the ``C(num_robots, num_faulty)``
    possibilities (drawn as the first ``f`` entries of a random
    permutation); targets are uniform over the pool.  ``crash_model`` is
    ``"silent"`` (faulty robots never report — the classic crash model) or
    ``"uniform"`` (each faulty robot reports visits up to a cut-off drawn
    uniformly in ``[0, horizon]``).
    """
    if num_trials < 1:
        raise InvalidProblemError("need at least one trial")
    if not targets:
        raise InvalidProblemError("need at least one target to sample from")
    if num_faulty < 0 or num_faulty > num_robots:
        raise InvalidProblemError(
            f"invalid fault count {num_faulty} for {num_robots} robots"
        )
    if crash_model not in ("silent", "uniform"):
        raise InvalidProblemError(
            f"unknown crash model {crash_model!r}; expected 'silent' or 'uniform'"
        )
    if crash_model == "uniform" and (horizon is None or horizon <= 0):
        raise InvalidProblemError("the uniform crash model needs a positive horizon")

    target_indices = rng.integers(0, len(targets), size=num_trials)
    fault_matrix = np.zeros((num_trials, num_robots), dtype=bool)
    if num_faulty > 0:
        # First f entries of a random permutation per row: argsort of iid
        # uniforms is a uniform permutation, so every f-subset is equally
        # likely.
        scores = rng.random((num_trials, num_robots))
        faulty = np.argsort(scores, axis=1, kind="stable")[:, :num_faulty]
        np.put_along_axis(fault_matrix, faulty, True, axis=1)
    if crash_model == "uniform":
        cutoffs = rng.uniform(0.0, float(horizon), size=(num_trials, num_robots))
        crash_times = np.where(fault_matrix, cutoffs, math.inf)
    else:
        crash_times = np.where(fault_matrix, 0.0, math.inf)
    return FaultTrialBatch(
        targets=TargetPool.of(targets),
        target_indices=target_indices,
        fault_matrix=fault_matrix,
        crash_times=crash_times,
    )


def target_arrival_matrix(
    trajectories: Sequence[Trajectory],
    targets: Union[TargetPool, Sequence[RayPoint]],
) -> np.ndarray:
    """The ``(robots, targets)`` first-arrival matrix over a mixed-ray pool.

    One pass over the strategy's compiled team
    (:meth:`~repro.geometry.compiled.CompiledTeam.pool_arrival_matrix`):
    one ``np.searchsorted`` per ray, one gather and one add, with the
    columns in pool order.
    """
    return compiled_team(trajectories).pool_arrival_matrix(targets)


def fault_detection_times(
    trajectories: Sequence[Trajectory],
    batch: FaultTrialBatch,
    engine: str = DEFAULT_ENGINE,
    trials_per_batch: int = DEFAULT_TRIALS_PER_BATCH,
    arrivals: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Detection time of every trial in a batch (``inf`` when never confirmed).

    A trial's target is confirmed at the earliest arrival that *counts*: a
    healthy robot's first visit, or a crash-faulty robot's first visit when
    it happens no later than the robot's sampled report cut-off.  The
    vectorized engine evaluates all trials against the shared
    ``(robots, targets)`` compiled arrival matrix in ``trials_per_batch``
    chunks; the scalar engine walks the per-trial reference loop.
    ``arrivals`` is that matrix (:func:`target_arrival_matrix` of
    ``batch.targets``) when the caller already holds it, as a campaign
    whose chunks share one target pool does.
    """
    engine = validate_engine(engine)
    if len(trajectories) != batch.num_robots:
        raise InvalidProblemError(
            f"batch was sampled for {batch.num_robots} robots, "
            f"got {len(trajectories)} trajectories"
        )
    if engine == SCALAR_ENGINE:
        return _fault_detection_times_scalar(trajectories, batch)
    return _fault_detection_times_vectorized(
        trajectories, batch, trials_per_batch, arrivals
    )


def trial_detection_time(
    trajectories: Sequence[Trajectory], target: RayPoint, cutoffs: Sequence[float]
) -> float:
    """Reference detection semantics for one trial: earliest counting visit.

    A visit counts when the robot's first arrival is no later than its
    report cut-off (``inf`` for a healthy robot, 0 for a silent crash
    fault).  This single implementation backs both the scalar engine and
    :func:`repro.faults.injection.detection_time_with_crash_times`.
    """
    best = math.inf
    for robot, trajectory in enumerate(trajectories):
        arrival = trajectory.first_arrival_time(target.ray, target.distance)
        if arrival <= cutoffs[robot] and arrival < best:
            best = arrival
    return best


def _fault_detection_times_scalar(
    trajectories: Sequence[Trajectory], batch: FaultTrialBatch
) -> np.ndarray:
    out = np.empty(batch.num_trials)
    for trial in range(batch.num_trials):
        out[trial] = trial_detection_time(
            trajectories, batch.target(trial), batch.crash_times[trial]
        )
    return out


def _fault_detection_times_vectorized(
    trajectories: Sequence[Trajectory],
    batch: FaultTrialBatch,
    trials_per_batch: int,
    arrivals: Optional[np.ndarray],
) -> np.ndarray:
    if trials_per_batch < 1:
        raise InvalidProblemError(
            f"trials_per_batch must be positive, got {trials_per_batch}"
        )
    if arrivals is None:
        arrivals = target_arrival_matrix(trajectories, batch.targets)
    out = np.empty(batch.num_trials)
    for lo in range(0, batch.num_trials, trials_per_batch):
        hi = min(lo + trials_per_batch, batch.num_trials)
        chunk = arrivals[:, batch.target_indices[lo:hi]].T  # (chunk, robots)
        counted = np.where(chunk <= batch.crash_times[lo:hi], chunk, math.inf)
        out[lo:hi] = counted.min(axis=1)
    return out


# ----------------------------------------------------------------------
# Randomized cyclic-offset workload
# ----------------------------------------------------------------------
def cyclic_schedule_indices(num_rays: int, base: float, horizon: float) -> np.ndarray:
    """Excursion indices of the randomized cyclic schedule covering ``horizon``.

    Excursion ``n`` visits ray ``n mod m`` to radius ``base**(n + offset)``.
    The start index is low enough that every ray is swept below distance 1
    for any offset in ``[0, m]``; the end index covers ``horizon`` likewise.
    This is the single source of truth shared by the scalar sampler
    (:meth:`repro.strategies.randomized.RandomizedSingleRobotRayStrategy.sample`)
    and the batched evaluator below, so both materialise exactly the same
    excursion sequence.
    """
    if num_rays < 2:
        raise InvalidProblemError(f"need at least 2 rays, got {num_rays}")
    if base <= 1.0:
        raise InvalidProblemError(f"base must exceed 1, got {base}")
    if horizon < 1.0:
        raise InvalidProblemError(f"horizon must be at least 1, got {horizon}")
    m, b = num_rays, base
    start = -int(math.ceil(m + m / math.log(b, 2) + 4))
    end = int(math.ceil(math.log(horizon, b))) + m + 1
    return np.arange(start, end + 1)


@dataclass(frozen=True)
class CyclicOffsetSchedule:
    """Closed-form batched arrival times of the randomized cyclic strategy.

    One sampled offset ``U`` turns the schedule into a concrete trajectory
    whose first arrival at ``(ray, d)`` is *prefix time of the first
    excursion on that ray reaching d* plus ``d``.  Because all offsets
    share the same excursion index range, a whole vector of offsets is
    evaluated at once, with memory per chunk of offsets x targets.  The
    first-covering excursion ``n0`` per (offset, target) comes from an
    exponent formula, corrected against the actual radius values where
    rounding could move it — replicating the scalar path's
    ``distance - 1e-12`` coverage tolerance.  The prefix time before
    ``n0`` is a geometric series in closed form,
    ``2 (base**(n0 + U) - base**(start + U)) / (base - 1)``, computed as
    ``base**U`` times a per-schedule table.  It agrees with the scalar
    trajectory builder's left-to-right running clock to ~1e-14 relative.
    """

    num_rays: int
    base: float
    horizon: float
    indices: np.ndarray

    @classmethod
    def plan(cls, num_rays: int, base: float, horizon: float) -> "CyclicOffsetSchedule":
        """Build the schedule for a strategy's ``(m, base)`` and a horizon."""
        return cls(
            num_rays=num_rays,
            base=float(base),
            horizon=float(horizon),
            indices=cyclic_schedule_indices(num_rays, base, horizon),
        )

    def arrival_times(
        self,
        offsets: np.ndarray,
        targets: Sequence[Tuple[int, float]],
        trials_per_batch: int = DEFAULT_TRIALS_PER_BATCH,
    ) -> np.ndarray:
        """The ``(offsets, targets)`` matrix of first arrival times.

        Entry ``(s, j)`` is the first arrival of the schedule with offset
        ``offsets[s]`` at target ``targets[j] = (ray, distance)`` — equal
        (to 1e-9) to materialising the sampled trajectory and querying
        :meth:`~repro.geometry.trajectory.Trajectory.first_arrival_time`.
        """
        if trials_per_batch < 1:
            raise InvalidProblemError(
                f"trials_per_batch must be positive, got {trials_per_batch}"
            )
        offsets = np.asarray(offsets, dtype=float).reshape(-1)
        if offsets.size and (offsets.min() < 0.0 or offsets.max() > self.num_rays):
            raise InvalidProblemError(
                f"offsets must lie in [0, {self.num_rays}]"
            )
        for ray, distance in targets:
            if not 0 <= ray < self.num_rays:
                raise InvalidProblemError(
                    f"target ray {ray} outside [0, {self.num_rays})"
                )
            if distance > self.horizon:
                raise InvalidProblemError(
                    f"target distance {distance} beyond planned horizon {self.horizon}"
                )
        # Column-major: each target's column is contiguous, and so are the
        # rows of the transpose the per-target statistics read.
        out = np.empty((offsets.size, len(targets)), order="F")
        for lo in range(0, offsets.size, trials_per_batch):
            hi = min(lo + trials_per_batch, offsets.size)
            self._arrival_chunk(offsets[lo:hi], targets, out[lo:hi])
        return out

    def _arrival_chunk(
        self,
        offsets: np.ndarray,
        targets: Sequence[Tuple[int, float]],
        out: np.ndarray,
    ) -> None:
        m, b = self.num_rays, self.base
        start = int(self.indices[0])
        log_b = math.log(b)
        # Excursion start + p begins after the geometric series
        # 2 (b**(start + U) + ... + b**(start + p - 1 + U)), which is
        # b**U times a per-schedule constant: one table entry per p, and
        # inf past the last excursion.
        powers = b ** self.indices.astype(float)
        prefix = np.append(2.0 * (powers - powers[0]) / (b - 1.0), math.inf)
        scale = b**offsets
        for j, (ray, distance) in enumerate(targets):
            if distance <= _EPS:
                out[:, j] = 0.0
                continue
            covered = distance - _EPS  # the scalar path's coverage tolerance
            # Smallest excursion index on the ray whose radius covers the
            # target: from the exponent, the first index on the ray above
            # it (float arithmetic on exact small integers).
            exponent = math.log(covered) / log_b - offsets
            n0 = ray + m * np.ceil((np.floor(exponent) + (1 - ray)) / m)
            first_on_ray = start + (ray - start) % m
            # The guess can be one excursion off only where the exponent
            # sits within rounding of an integer; there, correct it against
            # the radii themselves.
            near = np.flatnonzero(np.abs(exponent - np.rint(exponent)) < _GUESS_SLACK)
            for row in near.tolist():
                n0[row] = _covering_index(
                    float(n0[row]), float(offsets[row]), covered, b, m, first_on_ray
                )
            piece = np.maximum(n0, first_on_ray).astype(np.intp) - start
            np.minimum(piece, self.indices.size, out=piece)
            out[:, j] = scale * prefix[piece] + distance


#: Distance (in exponent units) from an integer within which the exponent
#: guess of :meth:`CyclicOffsetSchedule._arrival_chunk` is re-checked
#: against the radii.  Rounding moves the exponent by ~1e-13 at most.
_GUESS_SLACK = 1e-9


def _covering_index(
    n: float, offset: float, covered: float, b: float, m: int, first_on_ray: int
) -> float:
    """The first excursion index on ``n``'s ray whose radius covers ``covered``.

    ``n`` is at most a step off.  The radii are Python's
    ``b ** (n + offset)``, as the scalar sampler computes them: NumPy's
    ``power`` can differ from it in the last bit, which decides a target
    at exactly ``radius + 1e-12``.
    """
    for _ in range(2):
        if n - m >= first_on_ray and b ** (n - m + offset) >= covered:
            n -= m
    for _ in range(2):
        if b ** (n + offset) < covered:
            n += m
    return n
