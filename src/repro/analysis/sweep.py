"""Parameter sweeps: measured versus theoretical ratios over grids of (m, k, f).

The benches and the CLI all boil down to tables of the shape "for these
parameters, the paper predicts X, the simulator measures Y".  This module
produces those rows once, so benches, tests and the CLI share a single
implementation.

A sweep evaluates its rows serially, in order.  Grids large enough to
want parallelism go through :class:`repro.service.ScenarioScheduler`
instead: :func:`repro.service.simulate_grid_specs` and
:func:`repro.service.montecarlo_grid_specs` build spec lists whose batch
reproduces :func:`sweep_optimal_strategies` and
:func:`sweep_random_faults` bit for bit, on a process pool or remote
workers.  :func:`make_row_pool` builds that scheduler's process pool.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.bounds import crash_ray_ratio
from ..core.problem import ray_problem
from ..simulation.competitive import evaluate_strategy
from ..simulation.engine import DEFAULT_ENGINE
from ..simulation.monte_carlo import SeedLike, spawn_seeds
from ..strategies.base import Strategy
from ..strategies.optimal import optimal_strategy

__all__ = [
    "SweepRow",
    "StochasticSweepRow",
    "make_row_pool",
    "suggest_shard_size",
    "sweep_optimal_strategies",
    "sweep_strategy_family",
    "sweep_random_faults",
    "interesting_grid",
]


@dataclass(frozen=True)
class SweepRow:
    """One row of a measured-versus-theoretical sweep.

    ``relative_gap`` is ``(theoretical - measured) / theoretical`` — positive
    when the finite-horizon measurement has not yet reached the asymptotic
    worst case, which is the expected direction.
    """

    num_rays: int
    num_robots: int
    num_faulty: int
    strategy_name: str
    theoretical: float
    measured: float
    horizon: float

    @property
    def relative_gap(self) -> float:
        """Relative difference between the theoretical and measured ratios."""
        if not math.isfinite(self.theoretical) or self.theoretical == 0:
            return math.nan
        return (self.theoretical - self.measured) / self.theoretical

    def to_dict(self) -> dict:
        """Plain-dict form of the row (for JSON rendering and the service)."""
        return {
            "num_rays": self.num_rays,
            "num_robots": self.num_robots,
            "num_faulty": self.num_faulty,
            "strategy_name": self.strategy_name,
            "theoretical": self.theoretical,
            "measured": self.measured,
            "horizon": self.horizon,
            "relative_gap": self.relative_gap,
        }


@dataclass(frozen=True)
class StochasticSweepRow:
    """One row of a Monte-Carlo fault-injection sweep.

    ``adversarial`` is the worst-case ratio over the campaign's target pool
    with the adversarial fault assignment; the stochastic columns summarise
    the same strategy under uniformly random fault sets.  ``seed`` is the
    per-row child seed (derived deterministically from the sweep seed), so
    any row can be reproduced in isolation.
    """

    num_rays: int
    num_robots: int
    num_faulty: int
    strategy_name: str
    adversarial: float
    mean_ratio: float
    std_error: float
    quantile_95: float
    max_ratio: float
    num_trials: int
    horizon: float
    seed: int

    @property
    def slack(self) -> float:
        """Head-room the adversarial bound leaves over the random-fault mean."""
        return self.adversarial - self.mean_ratio

    def to_dict(self) -> dict:
        """Plain-dict form of the row (for JSON rendering and the service)."""
        return {
            "num_rays": self.num_rays,
            "num_robots": self.num_robots,
            "num_faulty": self.num_faulty,
            "strategy_name": self.strategy_name,
            "adversarial": self.adversarial,
            "mean_ratio": self.mean_ratio,
            "std_error": self.std_error,
            "quantile_95": self.quantile_95,
            "max_ratio": self.max_ratio,
            "num_trials": self.num_trials,
            "horizon": self.horizon,
            "seed": self.seed,
            "slack": self.slack,
        }


def interesting_grid(
    max_rays: int = 4, max_robots: int = 6, max_faulty: int = 2
) -> List[Tuple[int, int, int]]:
    """All ``(m, k, f)`` triples in the interesting regime within the given caps."""
    grid: List[Tuple[int, int, int]] = []
    for m in range(2, max_rays + 1):
        for f in range(0, max_faulty + 1):
            for k in range(f + 1, min(max_robots, m * (f + 1) - 1) + 1):
                if f < k < m * (f + 1):
                    grid.append((m, k, f))
    return grid


# ----------------------------------------------------------------------
# Rows
# ----------------------------------------------------------------------
def _optimal_row(m: int, k: int, f: int, horizon: float, engine: str) -> SweepRow:
    problem = ray_problem(m, k, f)
    strategy = optimal_strategy(problem)
    result = evaluate_strategy(strategy, horizon, engine=engine)
    return SweepRow(
        num_rays=m,
        num_robots=k,
        num_faulty=f,
        strategy_name=strategy.name,
        theoretical=crash_ray_ratio(m, k, f),
        measured=result.ratio,
        horizon=horizon,
    )


def _family_row(strategy: Strategy, horizon: float, engine: str) -> SweepRow:
    problem = strategy.problem
    result = evaluate_strategy(strategy, horizon, engine=engine)
    theoretical = strategy.theoretical_ratio()
    return SweepRow(
        num_rays=problem.num_rays,
        num_robots=problem.num_robots,
        num_faulty=problem.num_faulty,
        strategy_name=strategy.name,
        theoretical=theoretical if theoretical is not None else math.nan,
        measured=result.ratio,
        horizon=horizon,
    )


def _stochastic_row(
    m: int, k: int, f: int, horizon: float, num_trials: int, seed: int, engine: str
) -> StochasticSweepRow:
    from ..faults.injection import simulate_random_faults

    problem = ray_problem(m, k, f)
    strategy = optimal_strategy(problem)
    report = simulate_random_faults(
        strategy, horizon, num_trials=num_trials, seed=seed, engine=engine
    )
    statistics = report.statistics
    return StochasticSweepRow(
        num_rays=m,
        num_robots=k,
        num_faulty=f,
        strategy_name=strategy.name,
        adversarial=report.adversarial_ratio,
        mean_ratio=statistics.mean,
        std_error=statistics.std_error,
        quantile_95=statistics.quantile(0.95),
        max_ratio=statistics.maximum,
        num_trials=statistics.num_trials,
        horizon=horizon,
        seed=seed,
    )


def _resolve_workers(max_workers: Optional[int], num_tasks: int) -> int:
    if num_tasks <= 1:
        return 1
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    return max(1, min(max_workers, num_tasks))


def _pool_context():
    """The multiprocessing start-method context :func:`make_row_pool` uses.

    fork is the fastest start method but is unsafe once other threads are
    alive (the HTTP service builds its pool from handler threads while
    sibling threads run engine work — forked children would inherit held
    allocator/BLAS locks and can deadlock).  Prefer forkserver in that
    case.
    """
    methods = multiprocessing.get_all_start_methods()
    if threading.active_count() > 1 and "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return None


def make_row_pool(
    max_workers: Optional[int], num_tasks: int
) -> Optional[ProcessPoolExecutor]:
    """A process pool of up to ``max_workers`` processes for ``num_tasks``.

    For callers that dispatch many *small* work units over time — the
    service scheduler's pull-based local slot keeps one for its whole
    lifetime.  Children start by fork, or by forkserver once other
    threads are alive (see :func:`_pool_context`).  Returns ``None`` when
    parallelism would not pay (one worker, one task) or the pool cannot
    be built; callers then run serially.  The caller owns the pool and
    must ``shutdown()`` it.
    """
    workers = _resolve_workers(max_workers, num_tasks)
    if workers <= 1:
        return None
    try:
        return ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())
    except OSError:
        return None


def suggest_shard_size(
    num_tasks: int,
    num_executors: int = 1,
    shards_per_executor: int = 4,
) -> int:
    """Shard size giving every executor a few shards of comparable weight.

    ``num_executors`` counts the independent executors sharing the work —
    local process-pool workers, or (for the distributed scheduler) remote
    workers plus the local pool.  A few shards per executor amortises the
    per-shard overhead (process startup, one HTTP round-trip) while keeping
    all executors busy even when shards are heterogeneous in cost.
    """
    if num_tasks <= 0:
        return 1
    denominator = max(1, num_executors) * max(1, shards_per_executor)
    return max(1, math.ceil(num_tasks / denominator))


def sweep_optimal_strategies(
    parameters: Iterable[Tuple[int, int, int]],
    horizon: float = 1e4,
    engine: str = DEFAULT_ENGINE,
) -> List[SweepRow]:
    """Measure the optimal strategy for every ``(m, k, f)`` triple.

    The theoretical column is the tight bound ``A(m, k, f)``; the measured
    column is the exact finite-horizon supremum of the optimal strategy's
    ratio, which approaches the bound from below as the horizon grows.
    For a parallel run of the same rows, batch
    :func:`repro.service.simulate_grid_specs` through a scheduler.
    """
    return [_optimal_row(m, k, f, horizon, engine) for m, k, f in parameters]


def sweep_strategy_family(
    strategies: Sequence[Strategy],
    horizon: float = 1e4,
    engine: str = DEFAULT_ENGINE,
) -> List[SweepRow]:
    """Measure an arbitrary family of strategies (baselines, ablations, ...)."""
    return [_family_row(strategy, horizon, engine) for strategy in strategies]


def sweep_random_faults(
    parameters: Iterable[Tuple[int, int, int]],
    horizon: float = 1e3,
    num_trials: int = 256,
    seed: SeedLike = 0,
    engine: str = DEFAULT_ENGINE,
) -> List[StochasticSweepRow]:
    """Monte-Carlo fault-injection campaign for every ``(m, k, f)`` triple.

    The stochastic member of the sweep family: each row runs
    :func:`repro.faults.injection.simulate_random_faults` against the
    optimal strategy and summarises the trial statistics next to the
    adversarial reference.  Rows get independent child seeds derived from
    ``seed`` via :func:`repro.simulation.monte_carlo.spawn_seeds`, so the
    sweep is reproducible row-by-row, and a scheduled batch of
    :func:`repro.service.montecarlo_grid_specs` (same derivation) is
    bit-identical to it whatever its sharding or worker count.
    """
    parameters = list(parameters)
    seeds = spawn_seeds(seed, len(parameters))
    return [
        _stochastic_row(m, k, f, horizon, num_trials, row_seed, engine)
        for (m, k, f), row_seed in zip(parameters, seeds)
    ]
