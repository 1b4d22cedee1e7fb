"""Cyclic strategies (Bernstein, Finkelstein & Zilberstein, IJCAI 2003).

A *cyclic* strategy for ``k`` robots on ``m`` rays advances the search in a
single global cyclic order of rays: the ``n``-th search extension is on ray
``n mod m``, and the robots take turns performing the extensions
(extension ``n`` is executed by robot ``n mod k``), each extension reaching
a prescribed radius ``radii[n]`` that is larger than what the robot
previously explored.

Bernstein et al. resolved the ``f = 0`` time-competitive problem *within
this class* of strategies; the paper under reproduction removes the
restriction and shows the cyclic optimum is globally optimal.  This module
implements the general class so that the E5 bench can compare:

* arbitrary user-supplied radius schedules;
* the geometric schedule ``radii[n] = alpha^n``, which for
  ``alpha = (m/(m-k))^{1/k}`` attains the optimal ``f = 0`` ratio and
  coincides with :class:`~repro.strategies.geometric.RoundRobinGeometricStrategy`
  specialised to ``f = 0``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.bounds import crash_ray_ratio
from ..core.problem import Regime, SearchProblem, ray_problem
from ..exceptions import InvalidProblemError, InvalidStrategyError
from ..geometry import trajectory as trajectory_module
from ..geometry.trajectory import Trajectory
from .base import Strategy

__all__ = ["CyclicStrategy", "geometric_radius_schedule"]


def geometric_radius_schedule(alpha: float, start_exponent: int = 0) -> Callable[[int], float]:
    """Radius schedule ``n -> alpha^(n + start_exponent)`` for cyclic strategies."""
    if alpha <= 1.0:
        raise InvalidStrategyError(f"alpha must exceed 1, got {alpha}")

    def schedule(n: int) -> float:
        return alpha ** (n + start_exponent)

    return schedule


class CyclicStrategy(Strategy):
    """A cyclic multi-robot ray-search strategy with an arbitrary radius schedule.

    Parameters
    ----------
    problem:
        A fault-free (``f = 0``) ray-search problem with ``k < m``; the
        cyclic class was only studied in that regime.  (Faulty variants are
        covered by :class:`~repro.strategies.geometric.RoundRobinGeometricStrategy`.)
    radius_schedule:
        Callable mapping the global extension index ``n = 0, 1, 2, ...`` to
        the radius of that extension.  The schedule must be strictly
        increasing along each robot's subsequence for the strategy to be
        sensible; this is validated lazily when trajectories are built.
        ``None`` selects the optimal geometric schedule with base
        ``alpha* = (m/(m-k))^{1/k}``.
    start_index:
        The global index of the first materialised extension.  Negative
        values prepend extensions with radii below the minimum target
        distance, mirroring the paper's ``j = -2`` convention; the default
        ``-(m * k)`` guarantees that each robot sweeps every ray once below
        distance ``radius_schedule(0)``.
    """

    name = "cyclic"

    def __init__(
        self,
        problem: SearchProblem,
        radius_schedule: Optional[Callable[[int], float]] = None,
        start_index: Optional[int] = None,
    ) -> None:
        if problem.num_faulty != 0:
            raise InvalidProblemError(
                "CyclicStrategy models the fault-free problem of Bernstein et al.; "
                "use RoundRobinGeometricStrategy for faulty robots"
            )
        if problem.regime is Regime.TRIVIAL:
            raise InvalidProblemError(
                "with k >= m the trivial straight strategy is optimal; "
                "cyclic strategies need k < m"
            )
        super().__init__(problem)
        if radius_schedule is None:
            alpha = (problem.m / (problem.m - problem.k)) ** (1.0 / problem.k)
            radius_schedule = geometric_radius_schedule(alpha)
            self._is_optimal_geometric = True
            self.alpha: Optional[float] = alpha
        else:
            self._is_optimal_geometric = False
            self.alpha = None
        self.radius_schedule = radius_schedule
        if start_index is None:
            start_index = -(problem.m * problem.k)
        self.start_index = int(start_index)

    # ------------------------------------------------------------------
    def extension(self, n: int) -> Tuple[int, int, float]:
        """The ``n``-th extension: ``(ray, robot, radius)``.

        Ray and robot are assigned round-robin from the global index; the
        radius comes from the schedule.
        """
        ray = n % self.problem.m
        robot = n % self.problem.k
        radius = float(self.radius_schedule(n))
        if radius <= 0:
            raise InvalidStrategyError(
                f"radius schedule returned a non-positive radius at index {n}"
            )
        return ray, robot, radius

    def extensions_up_to(self, horizon: float) -> List[Tuple[int, int, float]]:
        """All extensions needed so every ray is explored beyond ``horizon``."""
        horizon = self._check_horizon(horizon)
        extensions: List[Tuple[int, int, float]] = []
        reached = [0.0] * self.problem.m
        n = self.start_index
        # Guard against schedules that never reach the horizon.
        max_extensions = 10_000_000
        while min(reached) < horizon:
            ray, robot, radius = self.extension(n)
            extensions.append((ray, robot, radius))
            reached[ray] = max(reached[ray], radius)
            n += 1
            if len(extensions) > max_extensions:  # pragma: no cover - safety net
                raise InvalidStrategyError(
                    "radius schedule failed to reach the horizon after "
                    f"{max_extensions} extensions"
                )
        return extensions

    def trajectories(self, horizon: float) -> List[Trajectory]:
        per_robot: List[List[Tuple[int, float]]] = [
            [] for _ in range(self.problem.k)
        ]
        previous_radius = [0.0] * self.problem.k
        for ray, robot, radius in self.extensions_up_to(horizon):
            if radius <= previous_radius[robot]:
                raise InvalidStrategyError(
                    "cyclic radius schedule is not increasing along robot "
                    f"{robot}: {radius} after {previous_radius[robot]}"
                )
            previous_radius[robot] = radius
            per_robot[robot].append((ray, radius))
        # Every pair is an ``(int ray, float radius)`` that :meth:`extension`
        # checked positive: the schedules are already the memo keys.
        return [
            trajectory_module._excursion_trajectory(tuple(schedule))
            for schedule in per_robot
        ]

    def theoretical_ratio(self) -> Optional[float]:
        """Known only for the optimal geometric schedule (the Theorem 6 value)."""
        if self._is_optimal_geometric:
            return crash_ray_ratio(self.problem.m, self.problem.k, 0)
        return None
