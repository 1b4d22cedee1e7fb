"""The optimal multi-robot geometric strategy (upper bound of Theorems 1 & 6).

Construction (appendix of the paper, rephrased with 0-based indices and with
``c = f + 1`` denoting the number of distinct robots that must visit every
point):

* Fix a base ``alpha > 1``.  Robot ``r`` visits the rays cyclically
  ``0, 1, ..., m-1, 0, 1, ...``.  On its ``j``-th full cycle (``j`` starts
  at a negative index so that every ray is swept below distance 1 first) the
  excursion on ray ``i`` goes to radius

  .. math:: R_r(i, j) = \\alpha^{\\,k\\,(i + m j) + m r}.

* The exponents that appear on a fixed ray ``i`` over all robots and cycles
  are exactly ``{k i + m t : t \\in \\mathbb{Z}}`` and the excursion with
  parameter ``t`` belongs to robot ``t \\bmod k``.  A target at distance
  ``x`` on ray ``i`` is therefore reached *within the deadline*
  ``lambda x`` by the ``c`` excursions whose exponents lie in
  ``[\\log_\\alpha x, \\log_\\alpha x + m c)`` — consecutive values of ``t``,
  hence ``c`` *distinct* robots (``c <= k``).

* The worst-case competitive ratio of the construction is
  ``1 + 2 alpha^q / (alpha^k - 1)`` with ``q = m c``; minimising over
  ``alpha`` gives ``alpha* = (q/(q-k))^{1/k}`` and ratio exactly
  ``A(m, k, f)`` (Theorem 6), or ``A(k, f)`` (Theorem 1) for ``m = 2``.

The module offers two physical realisations of the same radius schedule:

* :class:`RoundRobinGeometricStrategy` — excursions that return to the
  origin after every sweep (valid for every ``m``); and
* :class:`ZigzagGeometricLineStrategy` — for the line only, the robot turns
  directly from ``+t`` to the next ``-t'`` without stopping at the origin.
  The first-arrival times of the two realisations coincide, which the test
  suite checks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from ..core.bounds import (
    crash_ray_ratio,
    geometric_strategy_ratio,
    optimal_geometric_base,
)
from ..core.problem import Regime, SearchProblem
from ..exceptions import InvalidProblemError, InvalidStrategyError
from ..geometry import trajectory as trajectory_module
from ..geometry.trajectory import TRAJECTORY_MEMO_SIZE, Trajectory, zigzag_trajectory
from .base import Strategy

__all__ = ["RoundRobinGeometricStrategy", "ZigzagGeometricLineStrategy"]


class RoundRobinGeometricStrategy(Strategy):
    """Optimal geometric strategy for ``k`` robots, ``f`` crash faults, ``m`` rays.

    Parameters
    ----------
    problem:
        The search problem; must be in the *interesting* regime
        ``f < k < m (f + 1)`` for the construction to be defined.
    alpha:
        Excursion-radius base.  ``None`` (default) uses the optimal value
        ``(q/(q-k))^{1/k}``; other values are accepted so the ablation
        benches can sweep the base.
    start_cycle:
        Index of the first cycle, the paper's ``j = -2``.  More negative
        values only add (cheap) early excursions below distance 1 and never
        hurt coverage; less negative values may break coverage of targets
        near distance 1 and are rejected if they would.
    """

    name = "round-robin-geometric"

    def __init__(
        self,
        problem: SearchProblem,
        alpha: Optional[float] = None,
        start_cycle: int = -2,
    ) -> None:
        if problem.regime is not Regime.INTERESTING:
            raise InvalidProblemError(
                "the geometric strategy is defined for the interesting regime "
                f"f < k < m(f+1); got {problem.describe()}"
            )
        super().__init__(problem)
        self.required_visits = problem.required_visits
        self.q = problem.q
        if alpha is None:
            alpha = optimal_geometric_base(problem.m, problem.k, problem.f)
        if alpha <= 1.0:
            raise InvalidStrategyError(f"alpha must exceed 1, got {alpha}")
        self.alpha = float(alpha)
        if start_cycle > -2:
            raise InvalidStrategyError(
                "start_cycle must be at most -2 so that every ray is swept "
                f"below the minimum target distance first; got {start_cycle}"
            )
        self.start_cycle = int(start_cycle)

    # ------------------------------------------------------------------
    def radius(self, robot: int, ray: int, cycle: int) -> float:
        """Excursion radius ``alpha^(k (ray + m * cycle) + m * robot)``."""
        m, k = self.problem.m, self.problem.k
        exponent = k * (ray + m * cycle) + m * robot
        return self.alpha**exponent

    def _last_cycle(self, horizon: float) -> int:
        """Smallest cycle index whose excursions exceed the needed radius.

        Coverage of a target at distance ``horizon`` on the worst ray
        requires excursions with exponent up to
        ``log_alpha(horizon) + q``; we add one extra cycle of slack.
        """
        m, k = self.problem.m, self.problem.k
        needed_exponent = math.log(horizon, self.alpha) + self.q
        # Solve k*(i + m*j) + m*r >= needed_exponent in the worst case
        # (i = 0, r = 0): j >= needed_exponent / (k*m).
        return int(math.ceil(needed_exponent / (k * m))) + 1

    def excursion_schedule(self, robot: int, horizon: float) -> List[Tuple[int, float]]:
        """The ``(ray, radius)`` excursion list of one robot up to ``horizon``."""
        horizon = self._check_horizon(horizon)
        return _schedule(
            self.problem.m, self.problem.k, self.alpha, self.start_cycle,
            self._last_cycle(horizon), robot,
        )

    def trajectories(self, horizon: float) -> List[Trajectory]:
        horizon = self._check_horizon(horizon)
        return list(
            _round_robin_trajectories(
                self.problem.m, self.problem.k, self.alpha, self.start_cycle,
                self._last_cycle(horizon),
            )
        )

    def theoretical_ratio(self) -> float:
        """Worst-case ratio ``1 + 2 alpha^q / (alpha^k - 1)`` of this base.

        Equals :func:`~repro.core.bounds.crash_ray_ratio` when ``alpha`` is
        the optimal base.
        """
        return geometric_strategy_ratio(
            self.alpha, self.problem.m, self.problem.k, self.problem.f
        )

    def optimal_ratio(self) -> float:
        """The tight Theorem 6 value ``A(m, k, f)`` this family can reach."""
        return crash_ray_ratio(self.problem.m, self.problem.k, self.problem.f)


def _schedule(
    m: int, k: int, alpha: float, start_cycle: int, last_cycle: int, robot: int
) -> List[Tuple[int, float]]:
    """One robot's ``(ray, radius)`` excursions over cycles ``start..last``.

    :meth:`RoundRobinGeometricStrategy.radius` inlined: the same integer
    exponents and the same ``alpha ** exponent`` calls, so the radii are
    bit-identical.
    """
    robot_offset = m * robot
    return [
        (ray, alpha ** (k * (ray + m * cycle) + robot_offset))
        for cycle in range(start_cycle, last_cycle + 1)
        for ray in range(m)
    ]


@lru_cache(maxsize=TRAJECTORY_MEMO_SIZE)
def _round_robin_trajectories(
    m: int, k: int, alpha: float, start_cycle: int, last_cycle: int
) -> Tuple[Trajectory, ...]:
    """Every robot's trajectory, memoized by the constants that fix them.

    Horizons that land on the same cycle count share one entry, so a
    repeated problem neither rebuilds nor re-hashes its ``k`` schedules.
    An entry keeps the trajectories the schedule memo served when it was
    filled, even after that memo evicts them.
    Each schedule is already the trajectory memo's key: ``(int ray, float
    radius)`` pairs with rays in range and radii increasing from the
    first, so only that first radius needs checking (``alpha ** exponent``
    can underflow to 0 for a very negative ``start_cycle``).
    """
    result = []
    for robot in range(k):
        schedule = tuple(_schedule(m, k, alpha, start_cycle, last_cycle, robot))
        if schedule[0][1] <= 0.0:
            raise InvalidStrategyError(
                f"excursion radius must be positive, got {schedule[0][1]}"
            )
        result.append(trajectory_module._excursion_trajectory(schedule))
    return tuple(result)


class ZigzagGeometricLineStrategy(Strategy):
    """Line-only realisation of the geometric strategy without homing.

    Each robot follows the same radius schedule as
    :class:`RoundRobinGeometricStrategy` (for ``m = 2``), but instead of
    returning to the origin between excursions it turns directly from
    ``+t`` to the next ``-t'``.  On the line the time of first arrival at
    any point is identical for the two realisations, so this class attains
    the same competitive ratio; it exists because the paper's Section 2
    standardises strategies into exactly this zigzag form.
    """

    name = "zigzag-geometric-line"

    def __init__(
        self,
        problem: SearchProblem,
        alpha: Optional[float] = None,
        start_cycle: int = -2,
    ) -> None:
        if not problem.is_line:
            raise InvalidProblemError(
                "ZigzagGeometricLineStrategy is only defined on the line (m = 2)"
            )
        if problem.regime is not Regime.INTERESTING:
            raise InvalidProblemError(
                "the geometric strategy is defined for the interesting regime "
                f"f < k < 2(f+1); got {problem.describe()}"
            )
        super().__init__(problem)
        self._round_robin = RoundRobinGeometricStrategy(
            problem, alpha=alpha, start_cycle=start_cycle
        )
        self.alpha = self._round_robin.alpha

    def turning_points(self, robot: int, horizon: float) -> List[float]:
        """The alternating turning-point magnitudes of one robot.

        These are simply the excursion radii of the round-robin schedule in
        order; odd positions are interpreted as turns on the negative
        half-line by :func:`~repro.geometry.trajectory.zigzag_trajectory`.
        """
        schedule = self._round_robin.excursion_schedule(robot, horizon)
        return [radius for _ray, radius in schedule]

    def trajectories(self, horizon: float) -> List[Trajectory]:
        horizon = self._check_horizon(horizon)
        result = []
        for robot in range(self.problem.k):
            schedule = self._round_robin.excursion_schedule(robot, horizon)
            # The round-robin schedule alternates rays 0, 1, 0, 1, ...; a
            # zigzag starting in the positive direction realises exactly
            # that alternation.
            first_ray = schedule[0][0]
            points = [radius for _ray, radius in schedule]
            result.append(
                zigzag_trajectory(points, start_positive=(first_ray == 0))
            )
        return result

    def theoretical_ratio(self) -> float:
        """Same guarantee as the round-robin realisation."""
        return self._round_robin.theoretical_ratio()

    def optimal_ratio(self) -> float:
        """The tight Theorem 1 value ``A(k, f)``."""
        return self._round_robin.optimal_ratio()
