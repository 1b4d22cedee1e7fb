"""The adversary: worst-case target placement and fault assignment.

The competitive ratio is a game against an adversary that (a) places the
target anywhere at distance at least 1 from the origin and (b) chooses which
``f`` robots are faulty — both *after* seeing the strategy.  This module
implements that adversary exactly:

* For a fixed target point, the worst fault assignment silences the first
  ``f`` distinct visitors (:meth:`FaultModel.adversarial_fault_set`).
* Over target positions, the detection-time-to-distance ratio on a fixed
  ray is a piecewise function of the form ``(c + x) / x`` between
  *breakpoints* (the radii at which some robot's first-arrival time jumps),
  so the supremum is attained in the right-limit at a breakpoint.  The
  adversary therefore only needs to consider finitely many candidate
  targets; :func:`candidate_targets` enumerates them.

The enumeration is shared by two evaluation engines: the scalar per-target
reference loop and the batched NumPy engine of
:mod:`repro.simulation.engine` (the default).  Both see exactly the same
candidate set, so their results agree to floating-point noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.problem import SearchProblem
from ..exceptions import InvalidProblemError
from ..geometry.compiled import compiled_team
from ..geometry.rays import RayPoint
from ..geometry.trajectory import Trajectory
from ..geometry.visits import Visit, first_visits
from .models import FaultModel, fault_model_for

__all__ = [
    "AdversaryChoice",
    "Adversary",
    "candidate_distances",
    "candidate_targets",
]

#: Default multiplicative nudge applied past each breakpoint: the supremum
#: over a piece ``(a, b]`` of ``(c+x)/x`` is approached as ``x -> a+``, so we
#: evaluate at ``a * (1 + BREAKPOINT_NUDGE)``.
BREAKPOINT_NUDGE = 1e-9

#: Relative tolerance under which two candidate distances are considered the
#: same target.  When several robots sweep (numerically almost) the same
#: radius — e.g. the same power of alpha accumulated in different orders —
#: their breakpoints differ only in the last few ulps; evaluating each copy
#: multiplies the target count without changing the supremum.  The tolerance
#: is kept three orders of magnitude below :data:`BREAKPOINT_NUDGE` so
#: genuinely distinct nudged breakpoints are never merged.
DEDUP_TOLERANCE = 1e-12


def candidate_distances(
    trajectories: Sequence[Trajectory],
    ray: int,
    min_distance: float = 1.0,
    horizon: Optional[float] = None,
    nudge: float = BREAKPOINT_NUDGE,
    dedup_tolerance: float = DEDUP_TOLERANCE,
) -> List[float]:
    """Sorted candidate target distances on one ray.

    The candidates are the minimum admissible distance itself plus every
    breakpoint of every robot's first-arrival-time function on ``ray``,
    nudged infinitesimally to the right and clipped to
    ``[min_distance, horizon]``.  Near-identical values (within a relative
    ``dedup_tolerance``) are merged, keeping the smallest representative.
    """
    if min_distance <= 0:
        raise InvalidProblemError(f"min_distance must be positive, got {min_distance}")
    distances = {min_distance}
    for trajectory in trajectories:
        for breakpoint in trajectory.arrival_breakpoints(ray, minimum=min_distance):
            nudged = breakpoint * (1.0 + nudge)
            if nudged < min_distance:
                continue
            if horizon is not None and nudged > horizon:
                continue
            distances.add(nudged)
    ordered = sorted(distances)
    deduped = [ordered[0]]
    for distance in ordered[1:]:
        # Purely relative: distances are >= min_distance > 0, and an absolute
        # floor would swallow genuinely distinct nudged breakpoints below 1.
        if distance - deduped[-1] > dedup_tolerance * deduped[-1]:
            deduped.append(distance)
    return deduped


def candidate_targets(
    trajectories: Sequence[Trajectory],
    num_rays: int,
    min_distance: float = 1.0,
    horizon: Optional[float] = None,
    nudge: float = BREAKPOINT_NUDGE,
    dedup_tolerance: float = DEDUP_TOLERANCE,
) -> List[RayPoint]:
    """Enumerate the target positions at which the worst ratio can occur.

    Between consecutive candidates the detection time has the form
    ``c + x`` with constant ``c``, hence the ratio ``(c + x)/x`` is
    decreasing and the listed points dominate.  See
    :func:`candidate_distances` for the per-ray enumeration.
    """
    targets: List[RayPoint] = []
    for ray in range(num_rays):
        for distance in candidate_distances(
            trajectories,
            ray,
            min_distance=min_distance,
            horizon=horizon,
            nudge=nudge,
            dedup_tolerance=dedup_tolerance,
        ):
            targets.append(RayPoint(ray=ray, distance=distance))
    return targets


@dataclass(frozen=True)
class AdversaryChoice:
    """The adversary's best response to a set of trajectories.

    Attributes
    ----------
    target:
        Worst-case target location.
    faulty_robots:
        Robots the adversary makes faulty (the earliest visitors).
    detection_time:
        Time at which the target is nevertheless confirmed
        (``math.inf`` when it never is).
    ratio:
        ``detection_time / target.distance`` — the competitive ratio this
        choice forces.
    num_targets:
        Number of candidate targets the adversary inspected to arrive at
        this choice (0 for single-target evaluations via ``response_at``).
    """

    target: RayPoint
    faulty_robots: tuple
    detection_time: float
    ratio: float
    num_targets: int = 0


class Adversary:
    """Adversary for a given :class:`SearchProblem`.

    The adversary evaluates a concrete set of trajectories and returns the
    choice (target position + fault assignment) that maximises the
    detection-time-to-distance ratio.
    """

    def __init__(self, problem: SearchProblem, fault_model: Optional[FaultModel] = None) -> None:
        self.problem = problem
        self.fault_model = fault_model if fault_model is not None else fault_model_for(problem)

    def response_at(
        self, trajectories: Sequence[Trajectory], target: RayPoint
    ) -> AdversaryChoice:
        """The adversary's best response when the target is pinned at ``target``."""
        visits = first_visits(trajectories, target)
        detection_time = self.fault_model.confirmation_time(visits)
        faulty = tuple(self.fault_model.adversarial_fault_set(visits))
        ratio = (
            detection_time / target.distance
            if target.distance > 0
            else math.inf
        )
        return AdversaryChoice(
            target=target,
            faulty_robots=faulty,
            detection_time=detection_time,
            ratio=ratio,
        )

    def best_response(
        self,
        trajectories: Sequence[Trajectory],
        horizon: float,
        extra_targets: Sequence[RayPoint] = (),
        engine: Optional[str] = None,
    ) -> AdversaryChoice:
        """The adversary's best choice over all candidate targets up to ``horizon``.

        ``extra_targets`` lets callers add hand-picked positions (e.g. a
        uniform verification grid) on top of the exact breakpoint
        candidates.  ``engine`` selects the evaluation engine
        (``"vectorized"``, the default, or the ``"scalar"`` reference
        oracle); fault models without order-statistic confirmation always
        use the scalar path.
        """
        from ..simulation.engine import (
            DEFAULT_ENGINE,
            VECTORIZED_ENGINE,
            supports_vectorized,
            validate_engine,
        )

        engine = validate_engine(engine if engine is not None else DEFAULT_ENGINE)
        if engine == VECTORIZED_ENGINE and supports_vectorized(self.fault_model):
            return self._best_response_vectorized(trajectories, horizon, extra_targets)
        return self._best_response_scalar(trajectories, horizon, extra_targets)

    # ------------------------------------------------------------------
    def _candidates_by_ray(
        self, trajectories: Sequence[Trajectory], horizon: float
    ) -> Dict[int, np.ndarray]:
        """:func:`candidate_distances` of every ray, cached on the team."""
        team = compiled_team(trajectories)
        min_distance = self.problem.min_target_distance
        return {
            ray: team.candidates(ray, min_distance, horizon)
            for ray in range(self.problem.num_rays)
        }

    def _best_response_scalar(
        self,
        trajectories: Sequence[Trajectory],
        horizon: float,
        extra_targets: Sequence[RayPoint],
    ) -> AdversaryChoice:
        candidates = candidate_targets(
            trajectories,
            num_rays=self.problem.num_rays,
            min_distance=self.problem.min_target_distance,
            horizon=horizon,
        )
        candidates = list(candidates) + list(extra_targets)
        if not candidates:
            raise InvalidProblemError("no candidate targets to evaluate")
        best: Optional[AdversaryChoice] = None
        for target in candidates:
            if target.distance > horizon:
                continue
            choice = self.response_at(trajectories, target)
            if best is None or choice.ratio > best.ratio:
                best = choice
        assert best is not None  # candidates is non-empty and contains min_distance
        return replace(best, num_targets=len(candidates))

    def _best_response_vectorized(
        self,
        trajectories: Sequence[Trajectory],
        horizon: float,
        extra_targets: Sequence[RayPoint],
    ) -> AdversaryChoice:
        from ..simulation.engine import best_candidate

        candidates = self._candidates_by_ray(trajectories, horizon)
        num_targets = sum(len(d) for d in candidates.values()) + len(extra_targets)
        best = best_candidate(trajectories, self.fault_model, candidates)
        if extra_targets:
            extras: Dict[int, List[float]] = {}
            for target in extra_targets:
                if target.distance > horizon:
                    continue
                extras.setdefault(target.ray, []).append(target.distance)
            extra_best = best_candidate(trajectories, self.fault_model, extras)
            if extra_best is not None and (best is None or extra_best.ratio > best.ratio):
                best = extra_best
        if best is None:
            raise InvalidProblemError("no candidate targets to evaluate")
        choice = self.response_at(
            trajectories, RayPoint(ray=best.ray, distance=best.distance)
        )
        return replace(choice, num_targets=num_targets)
