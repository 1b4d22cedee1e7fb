"""Event timelines: a discrete-event view of a search execution.

The competitive-ratio machinery never needs an explicit event loop — every
quantity is available in closed form from the trajectories — but a concrete,
ordered list of events is valuable for debugging strategies, for the
examples, and for users who want to drive animations or logs.  This module
reconstructs that event sequence exactly from the same primitives.

Event kinds:

* ``turn`` — a robot reverses direction at the far end of an excursion/leg;
* ``origin`` — a robot passes through or stops at the origin;
* ``visit`` — a robot reaches the target location;
* ``confirm`` — the target is confirmed (the ``(f+1)``-th distinct visit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.problem import SearchProblem
from ..exceptions import InvalidProblemError
from ..faults.models import FaultModel, fault_model_for
from ..geometry.rays import RayPoint
from ..geometry.trajectory import Trajectory
from .detection import detect

__all__ = ["Event", "Timeline", "build_timeline", "truncate_rows"]


@dataclass(frozen=True, order=True)
class Event:
    """A single timeline event, ordered by time.

    ``kind`` is one of ``"turn"``, ``"origin"``, ``"visit"``, ``"confirm"``.
    ``robot`` is ``None`` for the collective ``confirm`` event.
    """

    time: float
    kind: str = field(compare=False)
    robot: Optional[int] = field(compare=False, default=None)
    ray: Optional[int] = field(compare=False, default=None)
    distance: Optional[float] = field(compare=False, default=None)

    def describe(self) -> str:
        """Human-readable one-line description of the event."""
        who = "collective" if self.robot is None else f"robot {self.robot}"
        where = ""
        if self.ray is not None and self.distance is not None:
            where = f" at ray {self.ray}, distance {self.distance:.4g}"
        return f"t={self.time:10.4f}  {self.kind:<8s} {who}{where}"

    def to_dict(self) -> dict:
        """Plain-dict form (for JSON rendering and the service layer)."""
        return {
            "time": self.time,
            "kind": self.kind,
            "robot": self.robot,
            "ray": self.ray,
            "distance": self.distance,
        }


@dataclass
class Timeline:
    """An ordered list of events plus the detection outcome that produced it."""

    events: List[Event]
    detection_time: float
    detected: bool

    def until(self, time: float) -> List[Event]:
        """Events that happen no later than ``time``."""
        return [event for event in self.events if event.time <= time]

    def of_kind(self, kind: str) -> List[Event]:
        """Events of a single kind, in order."""
        return [event for event in self.events if event.kind == kind]

    def render(self, limit: Optional[int] = None) -> str:
        """Multi-line plain-text rendering (truncated to ``limit`` events)."""
        return "\n".join(truncate_rows([event.describe() for event in self.events], limit))

    def to_dict(self) -> dict:
        """Plain-dict form (for JSON rendering and the service layer)."""
        return {
            "detected": self.detected,
            "detection_time": self.detection_time,
            "num_events": len(self.events),
            "events": [event.to_dict() for event in self.events],
        }


def truncate_rows(rows: List[str], limit: Optional[int]) -> List[str]:
    """The first ``limit`` rows plus a count of the rest (all when ``None``).

    Raises :class:`InvalidProblemError` for a negative ``limit``.
    """
    if limit is None:
        return rows
    if limit < 0:
        raise InvalidProblemError(f"limit must be non-negative, got {limit}")
    if len(rows) <= limit:
        return rows
    return rows[:limit] + [f"... ({len(rows) - limit} more events)"]


def build_timeline(
    trajectories: Sequence[Trajectory],
    target: RayPoint,
    problem: SearchProblem,
    fault_model: Optional[FaultModel] = None,
    stop_at_confirmation: bool = True,
) -> Timeline:
    """Reconstruct the event sequence of a search execution.

    Parameters
    ----------
    stop_at_confirmation:
        When True (default) events after the confirmation time are dropped —
        in the real execution the robots would stop searching.
    """
    model = fault_model if fault_model is not None else fault_model_for(problem)
    outcome = detect(trajectories, target, problem, fault_model=model)
    cutoff = outcome.detection_time if stop_at_confirmation else math.inf

    events: List[Event] = []
    for robot, trajectory in enumerate(trajectories):
        for segment in trajectory.segments:
            # A "turn" is the far end of an outward segment.
            if segment.end_distance > segment.start_distance:
                if segment.end_time <= cutoff:
                    events.append(
                        Event(
                            time=segment.end_time,
                            kind="turn",
                            robot=robot,
                            ray=segment.ray,
                            distance=segment.end_distance,
                        )
                    )
            elif segment.end_distance <= 1e-12 and segment.end_time <= cutoff:
                events.append(
                    Event(
                        time=segment.end_time,
                        kind="origin",
                        robot=robot,
                        ray=segment.ray,
                        distance=0.0,
                    )
                )
        arrival = trajectory.first_arrival_time(target.ray, target.distance)
        if math.isfinite(arrival) and arrival <= cutoff:
            events.append(
                Event(
                    time=arrival,
                    kind="visit",
                    robot=robot,
                    ray=target.ray,
                    distance=target.distance,
                )
            )
    if outcome.detected and outcome.detection_time <= cutoff:
        events.append(
            Event(
                time=outcome.detection_time,
                kind="confirm",
                robot=outcome.confirming_robot,
                ray=target.ray,
                distance=target.distance,
            )
        )
    events.sort()
    return Timeline(
        events=events,
        detection_time=outcome.detection_time,
        detected=outcome.detected,
    )
