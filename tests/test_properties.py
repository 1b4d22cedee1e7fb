"""Property-based tests (hypothesis) for the core invariants.

These tests exercise the closed-form bounds, the geometry substrate, the
covering machinery and the simulator with randomly generated inputs, pinning
down the structural invariants the rest of the library relies on:

* measured ratios never exceed theoretical guarantees;
* first-arrival times are consistent with trajectory positions;
* Lemma 4/5 inequalities hold for arbitrary parameters;
* exact-cover assignment really is exact, for arbitrary valid covers;
* strategy normalisation produces monotone sequences that cover no less.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import bounds, lemmas
from repro.core.covering import (
    CoverInterval,
    assign_exact_cover,
    find_hole,
    line_cover_intervals,
    multiplicity_at,
)
from repro.core.problem import SearchProblem, Regime, ray_problem
from repro.geometry.rays import LineDomain, RayPoint
from repro.geometry.trajectory import excursion_trajectory, zigzag_trajectory
from repro.geometry.visits import first_visits, nth_distinct_visit_time
from repro.simulation.competitive import evaluate_strategy
from repro.strategies.geometric import RoundRobinGeometricStrategy
from repro.strategies.single_robot import DoublingLineStrategy
from repro.strategies.validation import covered_intervals, normalise_turning_points

# Shared settings: the simulator-backed properties are a little slow, so cap
# the number of examples to keep the suite fast and deterministic.
FAST = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
MEDIUM = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Closed-form bounds
# ----------------------------------------------------------------------
@MEDIUM
@given(rho=st.floats(min_value=1.0001, max_value=50.0))
def test_power_term_at_least_one(rho):
    assert bounds.power_term(rho) >= 1.0


@MEDIUM
@given(
    m=st.integers(min_value=2, max_value=8),
    k=st.integers(min_value=1, max_value=20),
    f=st.integers(min_value=0, max_value=6),
)
def test_crash_ray_ratio_structure(m, k, f):
    assume(f <= k)
    value = bounds.crash_ray_ratio(m, k, f)
    if k == f:
        assert value == math.inf
    elif k >= m * (f + 1):
        assert value == 1.0
    else:
        # In the interesting regime the ratio always exceeds 3 (even the
        # easiest instance, rho -> 1, costs a factor 3) and is finite.
        assert 3.0 <= value < math.inf


@MEDIUM
@given(
    m=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=1, max_value=12),
    f=st.integers(min_value=0, max_value=4),
)
def test_more_robots_never_hurt(m, k, f):
    assume(f < k and k + 1 < m * (f + 1))
    assert bounds.crash_ray_ratio(m, k + 1, f) <= bounds.crash_ray_ratio(m, k, f) + 1e-9


@MEDIUM
@given(
    m=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=1, max_value=12),
    f=st.integers(min_value=0, max_value=4),
)
def test_more_faults_never_help(m, k, f):
    assume(f + 1 <= k)
    assert bounds.crash_ray_ratio(m, k, f + 1) >= bounds.crash_ray_ratio(m, k, f) - 1e-9


@MEDIUM
@given(
    k=st.integers(min_value=1, max_value=10),
    f=st.integers(min_value=0, max_value=9),
    c=st.integers(min_value=2, max_value=4),
)
def test_bound_depends_only_on_rho(k, f, c):
    """A(m,k,f) is a function of rho = m(f+1)/k only (scale invariance)."""
    assume(f < k < 2 * (f + 1))
    a = bounds.crash_ray_ratio(2, k, f)
    b = bounds.crash_ray_ratio(2 * c, c * k, f) if False else None
    # Scale k and q together by c: q = 2(f+1) -> use m = 2, k' = ck, and a
    # fault count f' with 2(f'+1) = 2c(f+1), i.e. f' = c(f+1) - 1.
    scaled = bounds.crash_ray_ratio(2, c * k, c * (f + 1) - 1)
    assert a == pytest.approx(scaled)


@MEDIUM
@given(
    m=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=1, max_value=10),
    f=st.integers(min_value=0, max_value=3),
    factor=st.floats(min_value=1.01, max_value=3.0),
)
def test_geometric_ratio_minimised_at_alpha_star(m, k, f, factor):
    assume(f < k < m * (f + 1))
    alpha_star = bounds.optimal_geometric_base(m, k, f)
    optimum = bounds.geometric_strategy_ratio(alpha_star, m, k, f)
    assert bounds.geometric_strategy_ratio(alpha_star * factor, m, k, f) >= optimum - 1e-9
    smaller = alpha_star / factor
    if smaller > 1.0:
        assert bounds.geometric_strategy_ratio(smaller, m, k, f) >= optimum - 1e-9


# ----------------------------------------------------------------------
# Lemmas 4 and 5
# ----------------------------------------------------------------------
@MEDIUM
@given(
    mu_star=st.floats(min_value=0.1, max_value=20.0),
    k=st.integers(min_value=1, max_value=8),
    s=st.integers(min_value=1, max_value=8),
    t=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
)
def test_lemma4_argmax_dominates(mu_star, k, s, t):
    x = t * mu_star
    maximum = lemmas.polynomial_maximum(mu_star, k, s)
    assert lemmas.polynomial_value(x, mu_star, k, s) <= maximum * (1 + 1e-9)


@MEDIUM
@given(
    k=st.integers(min_value=1, max_value=8),
    s=st.integers(min_value=1, max_value=8),
    mu_fraction=st.floats(min_value=0.3, max_value=0.999),
    mu_star_fraction=st.floats(min_value=0.05, max_value=1.0),
    t=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
)
def test_lemma5_step_ratio_floor(k, s, mu_fraction, mu_star_fraction, t):
    """For mu below critical and any mu* <= mu, the step ratio >= delta > 1."""
    mu_value = mu_fraction * lemmas.critical_mu(k, s)
    mu_star = mu_star_fraction * mu_value
    assume(mu_star > 1e-6)
    x = t * mu_star
    delta_value = lemmas.delta(mu_value, k, s)
    assert delta_value > 1.0
    assert lemmas.step_ratio(x, mu_star, k, s) >= delta_value * (1 - 1e-9)


# ----------------------------------------------------------------------
# Geometry
# ----------------------------------------------------------------------
@MEDIUM
@given(
    radii=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=8),
    rays=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8),
)
def test_excursion_arrival_consistent_with_position(radii, rays):
    n = min(len(radii), len(rays))
    excursions = list(zip(rays[:n], radii[:n]))
    trajectory = excursion_trajectory(excursions)
    # Total time is twice the total radius.
    assert trajectory.total_time == pytest.approx(2 * sum(r for _, r in excursions))
    # The first arrival at any reached point coincides with the position.
    for ray, radius in excursions:
        target = radius / 2
        time = trajectory.first_arrival_time(ray, target)
        assert math.isfinite(time)
        position = trajectory.position(time)
        assert position.ray == ray or target == 0
        assert position.distance == pytest.approx(target, abs=1e-6)


@MEDIUM
@given(
    points=st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=10)
)
def test_zigzag_first_arrivals_nondecreasing_in_distance(points):
    trajectory = zigzag_trajectory(points)
    for ray in (0, 1):
        previous = 0.0
        for distance in sorted({p / 2 for p in points} | set(points)):
            time = trajectory.first_arrival_time(ray, distance)
            if math.isfinite(time):
                assert time >= distance - 1e-9
                assert time >= previous - 1e-9
                previous = time


@MEDIUM
@given(x=st.floats(min_value=-100.0, max_value=100.0))
def test_line_domain_roundtrip(x):
    assert LineDomain.to_signed(LineDomain.from_signed(x)) == pytest.approx(x)


# ----------------------------------------------------------------------
# Normalisation and covering
# ----------------------------------------------------------------------
@MEDIUM
@given(
    points=st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=1, max_size=10)
)
def test_normalisation_is_monotone_and_dominated(points):
    normalised = normalise_turning_points(points)
    assert len(normalised) == len(points)
    assert all(b >= a for a, b in zip(normalised, normalised[1:]))
    assert all(new <= old + 1e-12 for new, old in zip(normalised, points))


@FAST
@given(
    positive=st.lists(st.floats(min_value=0.5, max_value=30.0), min_size=1, max_size=5),
    negative=st.lists(st.floats(min_value=0.5, max_value=30.0), min_size=1, max_size=5),
    mu=st.floats(min_value=1.0, max_value=6.0),
    fraction=st.floats(min_value=0.02, max_value=1.0),
)
def test_normalised_strategy_pm_covers_no_less(positive, negative, mu, fraction):
    """The paper's standardisation argument, checked on actual trajectories.

    The precondition of the argument (Section 2) is that the robot already
    alternates into unvisited territory — each side's turning points are
    non-decreasing — and that the strategy continues past the prefix we
    look at; inputs are generated accordingly (interleaved sorted
    subsequences plus a far tail).
    """
    positive = sorted(positive)
    negative = sorted(negative)
    points = []
    for pos_value, neg_value in zip(positive, negative):
        points.extend([pos_value, neg_value])
    if len(positive) > len(negative):
        points.append(positive[len(negative)])
    assume(len(points) >= 2)
    tail = 4.0 * max(points)
    full = points + [tail, 1.5 * tail]
    x = max(0.5, fraction * max(points))
    lam = 2 * mu + 1

    def pm_covered(sequence):
        trajectory = zigzag_trajectory(sequence)
        both = max(
            trajectory.first_arrival_time(0, x), trajectory.first_arrival_time(1, x)
        )
        return both <= lam * x + 1e-9

    if pm_covered(full):
        assert pm_covered(normalise_turning_points(full))


@FAST
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fold=st.integers(min_value=1, max_value=3),
)
def test_assign_exact_cover_is_exact(seed, fold):
    """Random valid covers are trimmed to exactly-fold covers."""
    import random

    rng = random.Random(seed)
    lo, hi = 1.0, 30.0
    intervals = []
    # Build `fold` independent tilings of [lo, hi], each cut at random points,
    # attributed to random robots; the union is a valid fold-cover.
    for layer in range(fold):
        cuts = sorted({lo, hi} | {rng.uniform(lo, hi) for _ in range(rng.randint(0, 6))})
        for index, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            intervals.append(
                CoverInterval(
                    left=a - rng.uniform(0.0, 0.5),
                    right=b,
                    robot=rng.randint(0, 2),
                    turn_index=layer * 100 + index,
                )
            )
    assigned = assign_exact_cover(intervals, fold, lo, hi)
    cuts = sorted(
        {lo, hi}
        | {a.left for a in assigned if lo < a.left < hi}
        | {a.right for a in assigned if lo < a.right < hi}
    )
    for a, b in zip(cuts[:-1], cuts[1:]):
        midpoint = (a + b) / 2
        count = sum(1 for i in assigned if i.left < midpoint <= i.right)
        assert count == fold


def _doubling_window(mu):
    """Turning points of the doubling cover, and the top of the window to search.

    With ``t_i = 2**i``, turn ``i`` covers ``[max((2**(i+1) - 1) / mu,
    2**(i-1)), 2**i]`` (Eq. 3), so a hole opens just above ``2**(i-1)``
    exactly when ``2**(1-i) < 4 - mu``.  The first such ``i`` runs off to
    infinity as ``mu -> 4``; the window reaches two turns past it, so the
    first hole lies inside even when rounding hides the narrowest one.
    For ``mu >= 4`` the cover has no hole and any window will do.
    """
    if mu >= 4.0:
        turns = 16
    else:
        first_hole_turn = math.floor(1.0 - math.log2(4.0 - mu)) + 1
        turns = first_hole_turn + 3
    return [2.0**i for i in range(turns)], 2.0 ** (turns - 1)


@FAST
@given(mu=st.floats(min_value=3.0, max_value=6.0))
def test_doubling_cover_has_holes_iff_mu_below_four(mu):
    # For the two doubles just below 4 the gap is narrower than the
    # rounding of the prefix sums and quotients that bound it, so double
    # arithmetic cannot show it at any turn.
    assume(mu >= 4.0 or 4.0 - mu > 2.0**-50)
    turning_points, hi = _doubling_window(mu)
    intervals = line_cover_intervals([turning_points], mu)
    hole = find_hole(intervals, fold=1, lo=1.0, hi=hi)
    if mu >= 4.0:
        assert hole is None
    else:
        assert hole is not None


# ----------------------------------------------------------------------
# Simulator-backed properties
# ----------------------------------------------------------------------
@FAST
@given(
    m=st.integers(min_value=2, max_value=4),
    f=st.integers(min_value=0, max_value=2),
    data=st.data(),
)
def test_optimal_strategy_never_exceeds_its_guarantee(m, f, data):
    k = data.draw(st.integers(min_value=f + 1, max_value=m * (f + 1) - 1))
    problem = ray_problem(m, k, f)
    assume(problem.regime is Regime.INTERESTING)
    strategy = RoundRobinGeometricStrategy(problem)
    result = evaluate_strategy(strategy, horizon=200.0)
    assert result.ratio <= strategy.theoretical_ratio() + 1e-6


@FAST
@given(base=st.floats(min_value=1.2, max_value=4.0))
def test_doubling_strategy_guarantee_holds_for_any_base(base):
    strategy = DoublingLineStrategy(base=base)
    result = evaluate_strategy(strategy, horizon=500.0)
    assert result.ratio <= strategy.theoretical_ratio() + 1e-6


@FAST
@given(
    distance=st.floats(min_value=1.0, max_value=150.0),
    ray=st.integers(min_value=0, max_value=1),
)
def test_confirmation_needs_f_plus_one_distinct_robots(distance, ray):
    problem = ray_problem(2, 3, 1)
    strategy = RoundRobinGeometricStrategy(problem)
    trajectories = strategy.trajectories(200.0)
    point = RayPoint(ray=ray, distance=distance)
    visits = first_visits(trajectories, point)
    confirmation = nth_distinct_visit_time(trajectories, point, 2)
    # The confirmation time is the 2nd visit and is at least the 1st visit.
    assert confirmation >= visits[0].time
    assert confirmation == visits[1].time
