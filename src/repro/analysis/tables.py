"""Experiment tables: one generator per experiment of DESIGN.md / EXPERIMENTS.md.

Every generator returns a :class:`ExperimentTable` — a named, self-describing
table with column headers and rows — so that the benchmark harness, the CLI
and EXPERIMENTS.md all print exactly the same numbers.  The experiment
identifiers (E1, E2, ...) match the per-experiment index in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import bounds
from ..core.certificates import CertificateKind, certify_line_strategy
from ..core.lemmas import critical_mu, delta, verify_lemma4, verify_lemma5
from ..core.problem import line_problem, ray_problem
from ..faults.byzantine import improvement_table
from ..related.contract import (
    geometric_contract_schedule,
    optimal_acceleration_ratio,
    search_ratio_from_acceleration,
)
from ..related.fractional import fractional_strategy, measure_fractional_ratio
from ..related.hybrid import (
    geometric_hybrid_schedule,
    hybrid_optimal_ratio,
    measure_hybrid_ratio,
)
from ..related.orc import geometric_orc_strategy, measure_orc_ratio
from ..simulation.competitive import evaluate_strategy
from ..strategies.geometric import RoundRobinGeometricStrategy, ZigzagGeometricLineStrategy
from ..strategies.naive import ReplicationStrategy, TrivialStraightStrategy
from ..strategies.optimal import optimal_strategy
from ..strategies.single_robot import DoublingLineStrategy, SingleRobotRayStrategy
from .sweep import interesting_grid, sweep_optimal_strategies

__all__ = [
    "ExperimentTable",
    "e1_theorem1_line",
    "e2_trivial_regimes",
    "e3_byzantine_bounds",
    "e4_theorem6_rays",
    "e5_parallel_rays",
    "e6_orc_covering",
    "e7_fractional",
    "e8_lemmas",
    "e9_classics",
    "e10_alpha_ablation",
    "e11_connections",
    "e12_randomized_and_average_case",
    "all_experiments",
]


@dataclass
class ExperimentTable:
    """A named table of experiment results.

    Attributes
    ----------
    experiment_id:
        Identifier matching DESIGN.md (e.g. ``"E1"``).
    title:
        Human-readable description of what the table reproduces.
    headers:
        Column names.
    rows:
        Table rows; each row has one entry per header (numbers or strings).
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def column(self, name: str) -> List[object]:
        """All values of one column, by header name."""
        index = self.headers.index(name)
        return [row[index] for row in self.rows]


def _fmt(value: object) -> object:
    if isinstance(value, float):
        if math.isinf(value):
            return float("inf")
        return round(value, 6)
    return value


# ----------------------------------------------------------------------
# E1: Theorem 1 — A(k, f) on the line
# ----------------------------------------------------------------------
def e1_theorem1_line(horizon: float = 1e4, max_faulty: int = 3) -> ExperimentTable:
    """Theorem 1: the tight line bound versus the measured optimal strategy.

    One row per ``(k, f)`` in the interesting regime ``f < k < 2 (f + 1)``:
    the paper's closed form, the measured supremum of the geometric
    strategy, and the relative gap (expected to be small and non-negative).
    """
    table = ExperimentTable(
        experiment_id="E1",
        title="Theorem 1: A(k, f) on the line — closed form vs measured strategy",
        headers=["k", "f", "rho", "A(k,f) paper", "measured", "relative gap"],
    )
    for f in range(1, max_faulty + 1):
        for k in range(f + 1, 2 * (f + 1)):
            problem = line_problem(k, f)
            strategy = RoundRobinGeometricStrategy(problem)
            measured = evaluate_strategy(strategy, horizon).ratio
            paper = bounds.crash_line_ratio(k, f)
            gap = (paper - measured) / paper
            table.rows.append(
                [k, f, _fmt(problem.rho), _fmt(paper), _fmt(measured), _fmt(gap)]
            )
    return table


# ----------------------------------------------------------------------
# E2: trivial regimes
# ----------------------------------------------------------------------
def e2_trivial_regimes(horizon: float = 1e3) -> ExperimentTable:
    """Boundary regimes: ratio 1 when ``k >= m (f+1)``; impossibility when ``k == f``."""
    table = ExperimentTable(
        experiment_id="E2",
        title="Trivial and impossible regimes around Theorem 1 / Theorem 6",
        headers=["m", "k", "f", "regime", "paper ratio", "measured"],
    )
    trivial_cases = [(2, 2, 0), (2, 4, 1), (3, 3, 0), (3, 6, 1), (4, 8, 1)]
    for m, k, f in trivial_cases:
        problem = ray_problem(m, k, f)
        strategy = TrivialStraightStrategy(problem)
        measured = evaluate_strategy(strategy, horizon).ratio
        table.rows.append(
            [m, k, f, problem.regime.value, 1.0, _fmt(measured)]
        )
    impossible_cases = [(2, 1, 1), (3, 2, 2)]
    for m, k, f in impossible_cases:
        problem = ray_problem(m, k, f)
        table.rows.append(
            [m, k, f, problem.regime.value, float("inf"), float("inf")]
        )
    return table


# ----------------------------------------------------------------------
# E3: Byzantine transfer
# ----------------------------------------------------------------------
def e3_byzantine_bounds() -> ExperimentTable:
    """Byzantine lower bounds implied by Theorem 1, versus the prior art."""
    table = ExperimentTable(
        experiment_id="E3",
        title="Byzantine lower bounds from the crash transfer (B(k,f) >= A(k,f))",
        headers=["k", "f", "new lower bound", "previous bound", "improvement"],
    )
    for row in improvement_table():
        table.rows.append(
            [
                row.k,
                row.f,
                _fmt(row.new_bound),
                _fmt(row.previous_bound) if row.previous_bound is not None else "-",
                _fmt(row.improvement) if row.improvement is not None else "-",
            ]
        )
    return table


# ----------------------------------------------------------------------
# E4: Theorem 6 — A(m, k, f) on m rays
# ----------------------------------------------------------------------
def e4_theorem6_rays(
    horizon: float = 1e4,
    max_rays: int = 4,
    max_robots: int = 6,
    max_faulty: int = 2,
) -> ExperimentTable:
    """Theorem 6: the m-ray bound versus the measured optimal strategy."""
    table = ExperimentTable(
        experiment_id="E4",
        title="Theorem 6: A(m, k, f) on m rays — closed form vs measured strategy",
        headers=["m", "k", "f", "A(m,k,f) paper", "measured", "relative gap"],
    )
    for row in sweep_optimal_strategies(
        interesting_grid(max_rays, max_robots, max_faulty), horizon=horizon
    ):
        table.rows.append(
            [
                row.num_rays,
                row.num_robots,
                row.num_faulty,
                _fmt(row.theoretical),
                _fmt(row.measured),
                _fmt(row.relative_gap),
            ]
        )
    return table


# ----------------------------------------------------------------------
# E5: f = 0 — parallel search on m rays (the old open question)
# ----------------------------------------------------------------------
def e5_parallel_rays(horizon: float = 1e4, max_rays: int = 6) -> ExperimentTable:
    """Fault-free parallel ray search: Theorem 6 at ``f = 0`` for ``k < m``."""
    from ..strategies.cyclic import CyclicStrategy

    table = ExperimentTable(
        experiment_id="E5",
        title="Parallel m-ray search (f = 0): optimal time ratio, cyclic vs geometric",
        headers=["m", "k", "A(m,k,0) paper", "cyclic measured", "round-robin measured"],
    )
    for m in range(2, max_rays + 1):
        for k in range(1, m):
            paper = bounds.crash_ray_ratio(m, k, 0)
            problem = ray_problem(m, k, 0)
            cyclic = CyclicStrategy(problem)
            cyclic_measured = evaluate_strategy(cyclic, horizon).ratio
            geometric = RoundRobinGeometricStrategy(problem)
            geometric_measured = evaluate_strategy(geometric, horizon).ratio
            table.rows.append(
                [m, k, _fmt(paper), _fmt(cyclic_measured), _fmt(geometric_measured)]
            )
    return table


# ----------------------------------------------------------------------
# E6: ORC covering bound (Eq. 10)
# ----------------------------------------------------------------------
def e6_orc_covering(horizon: float = 1e4, pairs: Optional[Sequence[Tuple[int, int]]] = None) -> ExperimentTable:
    """Eq. 10: C(k, q) versus the measured geometric ORC covering strategy."""
    table = ExperimentTable(
        experiment_id="E6",
        title="ORC q-fold covering: C(k, q) closed form vs measured geometric schedule",
        headers=["k", "q", "C(k,q) paper", "measured", "relative gap"],
    )
    if pairs is None:
        pairs = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (3, 6), (4, 6)]
    for k, q in pairs:
        paper = bounds.orc_covering_ratio(k, q)
        strategy = geometric_orc_strategy(k, q, horizon)
        measured = measure_orc_ratio(strategy, hi=horizon)
        gap = (paper - measured) / paper
        table.rows.append([k, q, _fmt(paper), _fmt(measured), _fmt(gap)])
    return table


# ----------------------------------------------------------------------
# E7: fractional retrieval (Eq. 11)
# ----------------------------------------------------------------------
def e7_fractional(
    horizon: float = 1e4,
    etas: Sequence[float] = (1.5, 2.0, 2.5, 3.0),
    robot_counts: Sequence[int] = (2, 4, 8),
) -> ExperimentTable:
    """Eq. 11: C(eta) versus the rational-approximation construction."""
    table = ExperimentTable(
        experiment_id="E7",
        title="Fractional one-ray retrieval: C(eta) vs rational approximations",
        headers=["eta", "robots", "effective eta", "C(eta) paper", "measured"],
    )
    for eta in etas:
        for num_robots in robot_counts:
            strategy = fractional_strategy(eta, num_robots, horizon)
            measured = measure_fractional_ratio(strategy, hi=horizon)
            paper = bounds.fractional_retrieval_ratio(eta)
            table.rows.append(
                [eta, num_robots, _fmt(strategy.eta), _fmt(paper), _fmt(measured)]
            )
    return table


# ----------------------------------------------------------------------
# E8: Lemmas 4 and 5
# ----------------------------------------------------------------------
def e8_lemmas(
    parameter_pairs: Sequence[Tuple[int, int]] = ((1, 1), (2, 1), (3, 1), (3, 3), (4, 2), (5, 3)),
) -> ExperimentTable:
    """Numeric verification of Lemma 4 and Lemma 5 on a grid of ``(k, s)``."""
    table = ExperimentTable(
        experiment_id="E8",
        title="Lemmas 4 & 5: polynomial maximiser and the growth factor delta",
        headers=[
            "k",
            "s",
            "critical mu",
            "delta at 0.99*mu_c",
            "lemma4 holds",
            "lemma5 holds",
        ],
    )
    for k, s in parameter_pairs:
        mu_c = critical_mu(k, s)
        mu_test = 0.99 * mu_c
        report4 = verify_lemma4(mu_star=mu_test, k=k, s=s)
        report5 = verify_lemma5(mu_value=mu_test, k=k, s=s)
        table.rows.append(
            [
                k,
                s,
                _fmt(mu_c),
                _fmt(delta(mu_test, k, s)),
                report4.holds,
                report5.holds,
            ]
        )
    return table


# ----------------------------------------------------------------------
# E9: classic special cases
# ----------------------------------------------------------------------
def e9_classics(horizon: float = 1e5, max_rays: int = 6) -> ExperimentTable:
    """Cow path (ratio 9) and single-robot m-ray search."""
    table = ExperimentTable(
        experiment_id="E9",
        title="Classic special cases: cow path and single-robot m-ray search",
        headers=["case", "m", "paper ratio", "measured"],
    )
    doubling = DoublingLineStrategy()
    measured = evaluate_strategy(doubling, horizon).ratio
    table.rows.append(["cow path (k=1, f=0)", 2, _fmt(bounds.cow_path_ratio()), _fmt(measured)])
    for m in range(3, max_rays + 1):
        strategy = SingleRobotRayStrategy(num_rays=m)
        measured = evaluate_strategy(strategy, horizon).ratio
        table.rows.append(
            [
                "single robot, m rays",
                m,
                _fmt(bounds.single_robot_ray_ratio(m)),
                _fmt(measured),
            ]
        )
    return table


# ----------------------------------------------------------------------
# E10: ablations
# ----------------------------------------------------------------------
def e10_alpha_ablation(
    m: int = 2,
    k: int = 3,
    f: int = 1,
    horizon: float = 1e4,
    multipliers: Sequence[float] = (0.85, 0.95, 1.0, 1.05, 1.15, 1.3),
) -> ExperimentTable:
    """Sensitivity of the geometric strategy to its base ``alpha``.

    Also includes the replication baseline and (when the claimed ratio dips
    below the bound) a lower-bound certificate demonstrating failure.
    """
    table = ExperimentTable(
        experiment_id="E10",
        title="Ablation: geometric base alpha sweep and the replication baseline",
        headers=["strategy", "alpha / A*", "guarantee", "measured", "optimal A(m,k,f)"],
    )
    problem = ray_problem(m, k, f)
    optimal = bounds.crash_ray_ratio(m, k, f)
    alpha_star = bounds.optimal_geometric_base(m, k, f)
    for multiplier in multipliers:
        alpha = alpha_star * multiplier
        if alpha <= 1.0:
            continue
        strategy = RoundRobinGeometricStrategy(problem, alpha=alpha)
        measured = evaluate_strategy(strategy, horizon).ratio
        table.rows.append(
            [
                f"geometric (alpha = {multiplier:.2f} * alpha*)",
                _fmt(multiplier),
                _fmt(strategy.theoretical_ratio()),
                _fmt(measured),
                _fmt(optimal),
            ]
        )
    replication = ReplicationStrategy(problem)
    measured = evaluate_strategy(replication, horizon).ratio
    table.rows.append(
        [
            "replication baseline",
            "-",
            _fmt(replication.theoretical_ratio()),
            _fmt(measured),
            _fmt(optimal),
        ]
    )
    return table


# ----------------------------------------------------------------------
# E11: connections to contract and hybrid algorithms
# ----------------------------------------------------------------------
def e11_connections(horizon: float = 1e5, cases: Sequence[Tuple[int, int]] = ((2, 1), (3, 1), (3, 2), (4, 2), (5, 3))) -> ExperimentTable:
    """Contract-algorithm and hybrid-algorithm identities from Section 3."""
    table = ExperimentTable(
        experiment_id="E11",
        title="Section 3 connections: contract scheduling and hybrid algorithms",
        headers=[
            "m",
            "k",
            "A(m,k,0)",
            "1 + 2*acc*(m-k,k)",
            "acc measured",
            "H(m,k) formula",
            "H measured",
        ],
    )
    for m, k in cases:
        search = bounds.crash_ray_ratio(m, k, 0)
        via_contract = search_ratio_from_acceleration(m, k)
        schedule = geometric_contract_schedule(m - k, k, horizon)
        acc_measured = schedule.acceleration_ratio()
        hybrid_formula = hybrid_optimal_ratio(m, k)
        hybrid_schedule = geometric_hybrid_schedule(m, k, horizon)
        hybrid_measured = measure_hybrid_ratio(hybrid_schedule, hi=horizon)
        table.rows.append(
            [
                m,
                k,
                _fmt(search),
                _fmt(via_contract),
                _fmt(acc_measured),
                _fmt(hybrid_formula),
                _fmt(hybrid_measured),
            ]
        )
    return table


# ----------------------------------------------------------------------
# E12: extensions — randomized search and average-case fault injection
# ----------------------------------------------------------------------
def e12_randomized_and_average_case(
    horizon: float = 500.0,
    max_rays: int = 5,
    num_trials: int = 150,
) -> ExperimentTable:
    """Extensions beyond the paper's worst-case deterministic setting.

    Two rows per configuration: (a) the randomized single-robot ray-search
    ratio (Kao-Reif-Tate / Schuierer related work) versus the deterministic
    optimum, and (b) the average-case detection ratio under uniformly random
    (rather than adversarial) crash faults for the paper's optimal strategy.
    """
    from ..faults.injection import simulate_random_faults
    from ..strategies.randomized import randomized_ray_ratio

    table = ExperimentTable(
        experiment_id="E12",
        title="Extensions: randomized search and random (non-adversarial) faults",
        headers=["setting", "parameters", "worst-case / deterministic", "randomized / average"],
    )
    for m in range(2, max_rays + 1):
        table.rows.append(
            [
                "randomized single-robot search",
                f"m={m}",
                _fmt(bounds.single_robot_ray_ratio(m)),
                _fmt(randomized_ray_ratio(m)),
            ]
        )
    for m, k, f in [(2, 3, 1), (2, 5, 2), (3, 4, 1)]:
        problem = ray_problem(m, k, f)
        strategy = RoundRobinGeometricStrategy(problem)
        report = simulate_random_faults(
            strategy, horizon=horizon, num_trials=num_trials, seed=0
        )
        table.rows.append(
            [
                "random crash faults (mean ratio)",
                f"m={m}, k={k}, f={f}",
                _fmt(bounds.crash_ray_ratio(m, k, f)),
                _fmt(report.mean_ratio),
            ]
        )
    return table


#: Experiment id -> table generator, in E-number order.
EXPERIMENTS: Dict[str, Callable[..., ExperimentTable]] = {
    "E1": e1_theorem1_line,
    "E2": e2_trivial_regimes,
    "E3": e3_byzantine_bounds,
    "E4": e4_theorem6_rays,
    "E5": e5_parallel_rays,
    "E6": e6_orc_covering,
    "E7": e7_fractional,
    "E8": e8_lemmas,
    "E9": e9_classics,
    "E10": e10_alpha_ablation,
    "E11": e11_connections,
    "E12": e12_randomized_and_average_case,
}

#: Experiments that run at their own fixed size, whatever the horizon.
_FIXED_SIZE = frozenset({"E3", "E8", "E12"})


def all_experiments(
    fast: bool = True, only: Optional[str] = None
) -> List[ExperimentTable]:
    """Every experiment table, with smaller horizons when ``fast`` is True.

    ``only`` (an id of :data:`EXPERIMENTS`) builds just that table, at the
    horizon the full run would give it.
    """
    horizon = 1e3 if fast else 1e4
    return [
        EXPERIMENTS[name]()
        if name in _FIXED_SIZE
        else EXPERIMENTS[name](horizon=horizon)
        for name in (EXPERIMENTS if only is None else [only])
    ]
