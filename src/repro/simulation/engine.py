"""The vectorized evaluation engine: batched adversary and batched detection.

The adversary's exact best response evaluates every candidate target — a
few dozen breakpoints per ray, thousands once a verification grid is added.
The original implementation walked a pure-Python loop per target (allocate
``Visit`` objects, sort them, build an ``AdversaryChoice``), which made the
evaluation cost ``O(targets x robots)`` Python operations.  This module
batches the whole computation over all rays and all robots at once:

1. the strategy's robots are compiled together into one
   :class:`~repro.geometry.compiled.CompiledTeam` (memoized per tuple of
   trajectories), so every robot's first arrival at *all* candidate
   distances is one ``np.searchsorted`` per ray plus one gather and one
   add, giving a ``(robots, targets)`` arrival matrix over every ray;
2. the crash-fault confirmation time of all targets at once is the
   ``(f+1)``-th order statistic per column, via ``np.partition``;
3. the worst target is the argmax of ``confirmation / distance`` over the
   ray-ascending concatenation of the candidates.

The scalar per-target path is kept as a reference oracle; every public
entry point accepts ``engine="vectorized"`` (the default) or
``engine="scalar"`` and the two are differentially tested to 1e-9 by
``tests/test_engine_equivalence.py``.  Fault models whose confirmation rule
is not a pure order statistic (``is_order_statistic`` False) silently fall
back to the scalar path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import InvalidProblemError
from ..faults.models import FaultModel
from ..geometry.compiled import compiled_team
from ..geometry.rays import RayPoint
from ..geometry.trajectory import Trajectory
from ..geometry.visits import Visit, order_statistic_times
from .detection import DetectionOutcome

__all__ = [
    "SCALAR_ENGINE",
    "VECTORIZED_ENGINE",
    "DEFAULT_ENGINE",
    "validate_engine",
    "supports_vectorized",
    "BatchBest",
    "best_candidate",
    "detection_outcomes",
]

#: Name of the per-target pure-Python reference engine.
SCALAR_ENGINE = "scalar"
#: Name of the batched NumPy engine.
VECTORIZED_ENGINE = "vectorized"
#: Engine used when callers do not ask for a specific one.
DEFAULT_ENGINE = VECTORIZED_ENGINE

_ENGINES = (SCALAR_ENGINE, VECTORIZED_ENGINE)


def validate_engine(engine: str) -> str:
    """Check that ``engine`` names a known evaluation engine and return it."""
    if engine not in _ENGINES:
        raise InvalidProblemError(
            f"unknown engine {engine!r}; expected one of {_ENGINES}"
        )
    return engine


def supports_vectorized(fault_model: FaultModel) -> bool:
    """True when the fault model's confirmation rule is a pure order statistic."""
    return bool(getattr(fault_model, "is_order_statistic", False))


@dataclass(frozen=True)
class BatchBest:
    """The argmax of one batched best-response pass.

    ``ratio`` is ``detection_time / distance`` as computed by the batched
    arithmetic; callers wanting the full :class:`AdversaryChoice` (fault
    set, visit order) re-evaluate the single winning target scalar-ly.
    """

    ray: int
    distance: float
    detection_time: float
    ratio: float


def best_candidate(
    trajectories: Sequence[Trajectory],
    fault_model: FaultModel,
    candidates_by_ray: Dict[int, Sequence[float]],
) -> Optional[BatchBest]:
    """The ratio-maximising target among per-ray candidate distances.

    Every ray's candidates go through one arrival matrix, concatenated in
    ascending ray order, and the first maximum wins: ties resolve to the
    lowest ray and, within a ray, to the first (smallest) candidate — the
    same tie-breaking as the scalar reference loop.  Returns ``None`` when
    every ray's candidate list is empty.
    """
    groups = [
        (ray, np.asarray(candidates_by_ray[ray], dtype=float))
        for ray in sorted(candidates_by_ray)
    ]
    groups = [(ray, group) for ray, group in groups if group.size]
    if not groups:
        return None
    team = compiled_team(trajectories)
    distances = np.concatenate([group for _ray, group in groups])
    columns = np.concatenate([team.columns(ray, group) for ray, group in groups])
    confirmations = order_statistic_times(
        team.arrivals(columns, distances), fault_model.required_visits
    )
    # Non-positive distances (the origin) force an infinite ratio, the
    # scalar engine's convention; dividing there would yield NaN and
    # poison the argmax.
    ratios = np.divide(
        confirmations,
        distances,
        out=np.full(distances.size, math.inf),
        where=distances > 0,
    )
    index = int(np.argmax(ratios))
    offset = index
    for ray, group in groups:
        if offset < group.size:
            break
        offset -= group.size
    return BatchBest(
        ray=ray,
        distance=float(distances[index]),
        detection_time=float(confirmations[index]),
        ratio=float(ratios[index]),
    )


def detection_outcomes(
    trajectories: Sequence[Trajectory],
    targets: Sequence[RayPoint],
    fault_model: FaultModel,
) -> List[DetectionOutcome]:
    """Batched :func:`repro.simulation.detection.detect` over many targets.

    Produces the same :class:`DetectionOutcome` objects as the scalar
    ``detect`` loop (visits sorted by ``(time, robot)``, adversarial fault
    set, confirming robot), but computes every arrival time of every target
    as one team arrival matrix.  Order of the returned list matches the
    order of ``targets``.
    """
    required = fault_model.required_visits
    num_faulty = fault_model.num_faulty
    matrix = compiled_team(trajectories).pool_arrival_matrix(targets)
    # Stable sort on time keeps equal-time visits in robot order, the
    # ordering of sorted Visit(time, robot) tuples.
    order = np.argsort(matrix, axis=0, kind="stable")
    times = np.take_along_axis(matrix, order, axis=0)
    outcomes: List[DetectionOutcome] = []
    for column, target in enumerate(targets):
        column_times = times[:, column]
        num_finite = int(np.searchsorted(column_times, math.inf))
        visits = tuple(
            Visit(time=float(column_times[row]), robot=int(order[row, column]))
            for row in range(num_finite)
        )
        detected = num_finite >= required
        detection_time = float(column_times[required - 1]) if detected else math.inf
        confirming = int(order[required - 1, column]) if detected else None
        ratio = (
            detection_time / target.distance
            if target.distance > 0
            else math.inf
        )
        outcomes.append(
            DetectionOutcome(
                target=target,
                visits=visits,
                faulty_robots=tuple(visit.robot for visit in visits[:num_faulty]),
                confirming_robot=confirming,
                detection_time=detection_time,
                ratio=ratio,
            )
        )
    return outcomes
