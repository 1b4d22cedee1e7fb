"""Multi-robot visit analysis.

The detection rule for crash faults is purely order-statistical: a target at
point ``p`` is confirmed at the time the ``(f + 1)``-th *distinct* robot
first reaches ``p`` (the adversary silences the earliest ``f`` visitors).
This module computes those order statistics exactly from trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..exceptions import InvalidProblemError
from .compiled import compiled_team
from .rays import RayPoint
from .trajectory import Trajectory

__all__ = [
    "Visit",
    "first_visits",
    "nth_distinct_visit_time",
    "visit_count_by_time",
    "covering_robots",
    "first_arrival_matrix",
    "order_statistic_times",
    "nth_distinct_visit_times",
]


@dataclass(frozen=True, order=True)
class Visit:
    """A single robot's first arrival at a point: ``(time, robot index)``.

    Ordering is by time first (then robot index), so a sorted list of visits
    is the arrival order the adversary reasons about.
    """

    time: float
    robot: int


def first_visits(trajectories: Sequence[Trajectory], point: RayPoint) -> List[Visit]:
    """First arrival of every robot at ``point``, sorted by time.

    Robots that never reach the point are omitted (their arrival time is
    infinite).
    """
    visits = []
    for index, trajectory in enumerate(trajectories):
        time = trajectory.first_arrival_time(point.ray, point.distance)
        if math.isfinite(time):
            visits.append(Visit(time=time, robot=index))
    return sorted(visits)


def nth_distinct_visit_time(
    trajectories: Sequence[Trajectory], point: RayPoint, n: int
) -> float:
    """Time at which the ``n``-th distinct robot first reaches ``point``.

    Returns ``math.inf`` when fewer than ``n`` robots ever visit the point.
    With ``n = f + 1`` this is exactly the crash-fault detection time.
    """
    if n < 1:
        raise InvalidProblemError(f"n must be at least 1, got {n}")
    visits = first_visits(trajectories, point)
    if len(visits) < n:
        return math.inf
    return visits[n - 1].time


def visit_count_by_time(
    trajectories: Sequence[Trajectory], point: RayPoint, deadline: float
) -> int:
    """Number of distinct robots that have visited ``point`` by ``deadline``."""
    return sum(1 for visit in first_visits(trajectories, point) if visit.time <= deadline)


def covering_robots(
    trajectories: Sequence[Trajectory], point: RayPoint, deadline: float
) -> List[int]:
    """Indices of the robots that visit ``point`` no later than ``deadline``."""
    return [
        visit.robot
        for visit in first_visits(trajectories, point)
        if visit.time <= deadline
    ]


# ----------------------------------------------------------------------
# Batched order statistics (the vectorized engine's primitives)
# ----------------------------------------------------------------------
def first_arrival_matrix(
    trajectories: Sequence[Trajectory], ray: int, distances: np.ndarray
) -> np.ndarray:
    """The ``(robots, targets)`` matrix of first arrival times on one ray.

    Row ``r`` holds robot ``r``'s first arrival at every queried distance
    (``inf`` where it never visits).  Read from the team's compiled form
    (:func:`~repro.geometry.compiled.compiled_team`), so a batch of
    targets costs one ``np.searchsorted`` over the union of every robot's
    reaches, one gather and one add, for all robots at once.
    """
    return compiled_team(trajectories).arrival_matrix(ray, distances)


def order_statistic_times(matrix: np.ndarray, n: int) -> np.ndarray:
    """Per-column ``n``-th smallest arrival time of an arrival matrix.

    With ``n = f + 1`` this is the crash-fault confirmation time of every
    target at once; columns with fewer than ``n`` finite entries come out
    as ``inf`` because the missing arrivals already are ``inf``.
    """
    if n < 1:
        raise InvalidProblemError(f"n must be at least 1, got {n}")
    if matrix.shape[0] < n:
        return np.full(matrix.shape[1], math.inf)
    if n == 1:
        return matrix.min(axis=0)
    return np.partition(matrix, n - 1, axis=0)[n - 1]


def nth_distinct_visit_times(
    trajectories: Sequence[Trajectory], ray: int, distances: np.ndarray, n: int
) -> np.ndarray:
    """Batched :func:`nth_distinct_visit_time` over distances on one ray."""
    return order_statistic_times(first_arrival_matrix(trajectories, ray, distances), n)
