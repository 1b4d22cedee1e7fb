"""The Monte-Carlo statistics routines against their one-column reference.

:meth:`TrialStatistics.from_sample` summarises a sample in one pass (one
sort, one sum shared by the mean and the deviations) and
:meth:`TrialStatistics.from_columns` summarises every column of a matrix
together.  Both must reproduce, bit for bit, the straightforward
implementation kept below as the oracle: ``mean()``, ``std(ddof=1)``,
``min()``, ``max()`` and a sorted copy per column.  Payload bytes depend
on it, so the comparison is on the IEEE bit patterns (``struct.pack``),
which also makes ``nan == nan``.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from repro.exceptions import InvalidProblemError
from repro.simulation.monte_carlo import SequentialEstimator, TrialStatistics

SIZES = (1, 2, 7, 8, 9, 8191, 8192, 8193, 20000)
COLUMN_KINDS = ("finite", "inf", "nan", "overflow")


# ----------------------------------------------------------------------
# The reference implementation (one column at a time)
# ----------------------------------------------------------------------
_QUANTILE_LEVELS = (0.5, 0.9, 0.95, 0.99)


def _oracle_linear_quantile(ordered, q):
    position = q * (ordered.size - 1)
    lower = int(math.floor(position))
    fraction = position - lower
    a = float(ordered[lower])
    if fraction == 0.0:
        return a
    b = float(ordered[min(lower + 1, ordered.size - 1)])
    if not math.isfinite(a) or not math.isfinite(b):
        return b
    return a + (b - a) * fraction


def _oracle_batch_means(sample, num_batches):
    size, extra = divmod(sample.size, num_batches)
    cut = extra * (size + 1)
    longer = sample[:cut].reshape(extra, size + 1).mean(axis=1)
    shorter = sample[cut:].reshape(num_batches - extra, size).mean(axis=1)
    return tuple(longer.tolist() + shorter.tolist())


def _oracle_from_sample(values, num_batches=8):
    sample = np.asarray(values, dtype=float).reshape(-1)
    finite = np.isfinite(sample)
    with np.errstate(invalid="ignore"):
        mean = float(sample.mean())
        if sample.size > 1 and bool(finite.all()):
            std_error = float(sample.std(ddof=1) / math.sqrt(sample.size))
        else:
            std_error = math.nan if not bool(finite.all()) else 0.0
    ordered = np.sort(sample)
    quantiles = tuple(
        (q, _oracle_linear_quantile(ordered, q)) for q in _QUANTILE_LEVELS
    )
    num_batches = max(1, min(num_batches, sample.size))
    return TrialStatistics(
        num_trials=int(sample.size),
        mean=mean,
        std_error=std_error,
        minimum=float(sample.min()),
        maximum=float(sample.max()),
        quantiles=quantiles,
        batch_means=_oracle_batch_means(sample, num_batches),
    )


def _oracle_std_error(sample):
    columns = sample.reshape(sample.shape[0], -1)
    worst = 0.0
    for j in range(columns.shape[1]):
        column = columns[:, j]
        if not bool(np.isfinite(column).all()):
            return math.nan
        if column.size > 1:
            se = float(column.std(ddof=1) / math.sqrt(column.size))
        else:
            se = 0.0
        worst = max(worst, se)
    return worst


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _bits(value):
    return struct.pack("<d", value)


def _fingerprint(stats):
    """Every field of a TrialStatistics, floats as their bit patterns."""
    return (
        stats.num_trials,
        _bits(stats.mean),
        _bits(stats.std_error),
        _bits(stats.minimum),
        _bits(stats.maximum),
        tuple((q, _bits(v)) for q, v in stats.quantiles),
        tuple(_bits(v) for v in stats.batch_means),
    )


def _column(rng, size, kind):
    """A heavy-tailed column of ratios >= 1 (no signed zeros)."""
    column = 1.0 + rng.lognormal(0.0, 1.5, size)
    if kind == "inf":
        column[rng.integers(0, size, max(1, size // 50))] = math.inf
    elif kind == "nan":
        column[rng.integers(0, size)] = math.nan
    elif kind == "overflow":
        column *= 1e300
    return column


def _matrix(size, seed=0):
    rng = np.random.default_rng([size, seed])
    return np.column_stack([_column(rng, size, kind) for kind in COLUMN_KINDS])


def _layouts(matrix):
    """The same values C-ordered, Fortran-ordered and as a strided view."""
    padded = np.zeros((2 * matrix.shape[0], 2 * matrix.shape[1]))
    padded[::2, ::2] = matrix
    strided = padded[::2, ::2]
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    return {
        "C": np.ascontiguousarray(matrix),
        "F": np.asfortranarray(matrix),
        "strided": strided,
    }


# ----------------------------------------------------------------------
# from_sample and from_columns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_from_sample_matches_the_reference(size, layout):
    matrix = _layouts(_matrix(size))[layout]
    for j, kind in enumerate(COLUMN_KINDS):
        column = matrix[:, j]
        for num_batches in (1, 3, 8):
            with np.errstate(over="ignore"):
                expected = _oracle_from_sample(column, num_batches)
                got = TrialStatistics.from_sample(column, num_batches)
            assert _fingerprint(got) == _fingerprint(expected), (kind, num_batches)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_from_columns_matches_from_sample_per_column(size, layout):
    matrix = _layouts(_matrix(size, seed=1))[layout]
    for num_batches in (1, 8):
        with np.errstate(over="ignore"):
            columns = TrialStatistics.from_columns(matrix, num_batches)
            assert len(columns) == matrix.shape[1]
            for j, stats in enumerate(columns):
                expected = TrialStatistics.from_sample(matrix[:, j], num_batches)
                assert _fingerprint(stats) == _fingerprint(expected), COLUMN_KINDS[j]


def test_column_kinds_reach_their_edge_cases():
    with np.errstate(over="ignore"):
        finite, inf, nan, overflow = TrialStatistics.from_columns(_matrix(8193))
    assert math.isfinite(finite.mean) and math.isfinite(finite.std_error)
    assert inf.mean == math.inf and math.isnan(inf.std_error)
    assert inf.maximum == math.inf and math.isfinite(inf.minimum)
    assert math.isnan(nan.minimum) and math.isnan(nan.maximum)
    assert math.isfinite(overflow.mean) and overflow.std_error == math.inf


def test_from_columns_rejects_other_shapes():
    with pytest.raises(InvalidProblemError):
        TrialStatistics.from_columns(np.ones(5))
    with pytest.raises(InvalidProblemError):
        TrialStatistics.from_columns(np.ones((0, 3)))
    assert TrialStatistics.from_columns(np.ones((4, 0))) == ()


# ----------------------------------------------------------------------
# SequentialEstimator
# ----------------------------------------------------------------------
def _chunk_stream(seed, columns, chunk_trials, order):
    """Seeded chunks whose spread shrinks the standard error steadily;
    with ``columns=None`` the chunks are 1-D."""
    rng = np.random.default_rng(seed)
    while True:
        shape = (chunk_trials,) if columns is None else (chunk_trials, columns)
        chunk = 1.0 + rng.lognormal(0.0, 1.0, shape)
        if rng.random() < 0.1:
            # An occasional overflowing chunk: finite values whose squared
            # deviations are inf.
            chunk = chunk * 1e300
        yield np.asarray(chunk, order=order)


@pytest.mark.parametrize(
    "columns, order", [(None, "C"), (1, "C"), (3, "C"), (3, "F")]
)
@pytest.mark.parametrize("seed", range(6))
def test_sequential_estimator_stops_where_the_reference_does(columns, order, seed):
    for target_se in (0.5, 0.1, 0.04):
        estimator = SequentialEstimator(
            max_trials=4096, chunk_trials=256, target_se=target_se
        )
        chunks = []
        stream = _chunk_stream(seed, columns, 256, order)
        while not estimator.done:
            chunk = next(stream)
            chunks.append(chunk)
            with np.errstate(over="ignore"):
                got = estimator.add_chunk(chunk)
                expected = _oracle_std_error(np.concatenate(chunks, axis=0))
                again = estimator.std_error()
            assert _bits(got) == _bits(expected) == _bits(again)
            converged = math.isfinite(expected) and expected <= target_se
            assert estimator.converged == converged
        sample = np.concatenate(chunks, axis=0)
        assert estimator.trials_used == sample.shape[0]
        with np.errstate(over="ignore"):
            statistics = estimator.statistics()
            if columns is None:
                assert _fingerprint(statistics) == _fingerprint(
                    _oracle_from_sample(sample)
                )
            else:
                assert [_fingerprint(s) for s in statistics] == [
                    _fingerprint(_oracle_from_sample(sample[:, j]))
                    for j in range(columns)
                ]


def test_sequential_estimator_non_finite_and_single_trial():
    estimator = SequentialEstimator(max_trials=10, chunk_trials=1, target_se=1.0)
    assert estimator.add_chunk([3.0]) == 0.0
    assert estimator.converged
    estimator = SequentialEstimator(max_trials=10, chunk_trials=2, target_se=1.0)
    assert math.isnan(estimator.add_chunk(np.array([[1.0, 2.0], [math.inf, 2.0]])))
    assert not estimator.converged
    # A NaN in a later column still makes the whole sample's error NaN.
    estimator = SequentialEstimator(max_trials=10, chunk_trials=2, target_se=1.0)
    assert math.isnan(estimator.add_chunk(np.array([[1.0, 2.0], [1.5, math.nan]])))


def test_sequential_estimator_skips_a_nan_error_of_finite_values():
    # Finite values whose pairwise partial sums reach +inf and -inf: the
    # column's mean, and so its standard error, is NaN.  The worst-column
    # error skips it as the running ``max(worst, se)`` from 0 does.
    column = np.ones(16)
    column[[0, 8]] = 1e308
    column[[1, 9]] = -1e308
    chunk = np.column_stack([column, np.arange(16.0)])
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(TrialStatistics.from_sample(column).std_error)
        estimator = SequentialEstimator(max_trials=16, target_se=0.01)
        got = estimator.add_chunk(chunk)
        expected = _oracle_std_error(chunk)
    assert _bits(got) == _bits(expected)
    assert got == TrialStatistics.from_sample(np.arange(16.0)).std_error
