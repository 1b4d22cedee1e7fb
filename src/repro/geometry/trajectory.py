"""Robot trajectories on a star of rays.

A trajectory describes the motion of a single unit-speed robot that starts
at the origin at time 0.  Internally every trajectory is compiled into a
sequence of :class:`Segment` objects — maximal stretches of time during
which the robot moves monotonically along a single ray — which makes the
queries the library needs *exact*:

* :meth:`Trajectory.position` — where is the robot at time ``t``?
* :meth:`Trajectory.first_arrival_time` — when does the robot first reach a
  given point?  (``math.inf`` if never.)
* :meth:`Trajectory.arrival_breakpoints` — the distances on a ray at which
  the first-arrival-time function jumps; between consecutive breakpoints it
  has the form ``c + x``, which is what makes the competitive-ratio supremum
  computable exactly (see :mod:`repro.simulation.competitive`).

Two convenient constructors cover the strategies in the paper:

* :func:`excursion_trajectory` — the robot repeatedly leaves the origin,
  walks to a prescribed radius on a prescribed ray and returns.  This is the
  natural motion for the m-ray problem and for the ORC covering setting.
* :func:`zigzag_trajectory` — the robot alternates directions on the real
  line *without* returning to the origin between turns (turning points
  ``t1, -t2, t3, ...``).  This matches the standardised strategies of
  Section 2.

Both constructors are pure functions of their inputs and a trajectory is
immutable, so they serve repeated inputs from one process-wide LRU memo
(:data:`TRAJECTORY_MEMO_SIZE` entries): strategies for the same problem
and horizon band rebuild identical schedules, and a hit shares the
:class:`Trajectory` object — with its lazily compiled arrays — instead of
re-validating every :class:`Segment`.  Invalid inputs raise on every call;
a failed build is never cached.  A schedule that is built once and never
again (a randomized strategy's sampled offset) goes through
:func:`one_off_excursion_trajectory` instead, so it cannot evict the
reusable ones.  A memoized excursion schedule computes its
arrival pieces straight from the ``(ray, radius)`` pairs and builds its
segments only when asked, so the memo adds little to every full garbage
collection.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .compiled import CompiledTrajectory

from ..exceptions import InvalidStrategyError
from .rays import NEGATIVE_RAY, POSITIVE_RAY, RayPoint

__all__ = [
    "Segment",
    "Trajectory",
    "Excursion",
    "excursion_trajectory",
    "one_off_excursion_trajectory",
    "zigzag_trajectory",
    "straight_trajectory",
    "idle_trajectory",
]

_EPS = 1e-12

#: Entries of the process-wide memo behind :func:`excursion_trajectory` and
#: :func:`zigzag_trajectory`.  A stream of optimal-strategy scenarios over
#: a handful of problems touches well under a hundred distinct schedules.
TRAJECTORY_MEMO_SIZE = 128


@dataclass(frozen=True)
class Segment:
    """A maximal time interval of monotone motion along a single ray.

    Attributes
    ----------
    start_time, end_time:
        The time interval ``[start_time, end_time]`` covered by the segment.
    ray:
        Ray index the robot is on during the segment.
    start_distance, end_distance:
        Distances from the origin at the segment's endpoints.  Motion is at
        unit speed, so ``|end_distance - start_distance| ==
        end_time - start_time`` (up to floating point).
    """

    start_time: float
    end_time: float
    ray: int
    start_distance: float
    end_distance: float

    def __post_init__(self) -> None:
        if self.end_time < self.start_time - _EPS:
            raise InvalidStrategyError(
                f"segment ends before it starts: {self.start_time} > {self.end_time}"
            )
        if self.start_distance < -_EPS or self.end_distance < -_EPS:
            raise InvalidStrategyError("segment distances must be non-negative")
        span = abs(self.end_distance - self.start_distance)
        duration = self.end_time - self.start_time
        if abs(span - duration) > 1e-6 * max(1.0, duration):
            raise InvalidStrategyError(
                "segment violates unit speed: "
                f"covers distance {span} in time {duration}"
            )

    @property
    def duration(self) -> float:
        """Length of the segment's time interval."""
        return self.end_time - self.start_time

    @property
    def max_distance(self) -> float:
        """Largest distance from the origin reached during the segment."""
        return max(self.start_distance, self.end_distance)

    @property
    def min_distance(self) -> float:
        """Smallest distance from the origin reached during the segment."""
        return min(self.start_distance, self.end_distance)

    def covers_distance(self, distance: float) -> bool:
        """True when the robot passes through ``distance`` on this segment."""
        return self.min_distance - _EPS <= distance <= self.max_distance + _EPS

    def arrival_time(self, distance: float) -> float:
        """Time at which the segment's motion reaches ``distance``.

        Only valid when :meth:`covers_distance` holds; motion is monotone
        within a segment so the crossing time is unique.
        """
        if not self.covers_distance(distance):
            raise InvalidStrategyError(
                f"segment does not cover distance {distance}"
            )
        return self.start_time + abs(distance - self.start_distance)

    def position_at(self, t: float) -> float:
        """Distance from the origin at time ``t`` (``t`` inside the segment)."""
        if not (self.start_time - _EPS <= t <= self.end_time + _EPS):
            raise InvalidStrategyError(f"time {t} outside segment")
        direction = 1.0 if self.end_distance >= self.start_distance else -1.0
        return self.start_distance + direction * (t - self.start_time)


class Trajectory:
    """The full motion of one robot, as an ordered sequence of segments.

    The constructor validates temporal continuity (each segment starts when
    the previous one ends) and spatial continuity (ray changes only happen
    at the origin).  A trajectory is immutable once built.
    """

    def __init__(self, segments: Sequence[Segment]) -> None:
        segs = tuple(segments)
        self._validate(segs)
        self._segments = segs
        self._pieces = _arrival_pieces(
            (seg.ray, seg.start_time, seg.start_distance, seg.end_distance)
            for seg in segs
        )
        self._compiled: Optional["CompiledTrajectory"] = None

    @cached_property
    def _by_ray(self) -> Dict[int, List[Segment]]:
        by_ray: Dict[int, List[Segment]] = {}
        for seg in self._segments:
            by_ray.setdefault(seg.ray, []).append(seg)
        return by_ray

    @cached_property
    def _start_times(self) -> List[float]:
        return [seg.start_time for seg in self._segments]

    @staticmethod
    def _validate(segments: Tuple[Segment, ...]) -> None:
        previous: Optional[Segment] = None
        for seg in segments:
            if previous is None:
                if seg.start_time > _EPS:
                    raise InvalidStrategyError(
                        "trajectory must start at time 0 "
                        f"(first segment starts at {seg.start_time})"
                    )
                if seg.start_distance > _EPS:
                    raise InvalidStrategyError(
                        "trajectory must start at the origin "
                        f"(first segment starts at distance {seg.start_distance})"
                    )
            else:
                if abs(seg.start_time - previous.end_time) > 1e-6 * max(
                    1.0, previous.end_time
                ):
                    raise InvalidStrategyError(
                        "segments must be temporally contiguous: "
                        f"{previous.end_time} vs {seg.start_time}"
                    )
                if seg.ray == previous.ray:
                    if abs(seg.start_distance - previous.end_distance) > 1e-6 * max(
                        1.0, previous.end_distance
                    ):
                        raise InvalidStrategyError(
                            "segments on the same ray must be spatially contiguous"
                        )
                else:
                    if previous.end_distance > 1e-6 or seg.start_distance > 1e-6:
                        raise InvalidStrategyError(
                            "ray changes are only allowed at the origin"
                        )
            previous = seg

    # ------------------------------------------------------------------
    @property
    def segments(self) -> Tuple[Segment, ...]:
        """The underlying segments, in temporal order."""
        return self._segments

    @property
    def total_time(self) -> float:
        """End time of the last segment (0 for an empty trajectory)."""
        if not self._segments:
            return 0.0
        return self._segments[-1].end_time

    def rays_visited(self) -> List[int]:
        """Sorted list of ray indices this trajectory ever moves on."""
        return sorted(self._pieces)

    def max_distance(self, ray: int) -> float:
        """Farthest distance from the origin ever reached on ``ray``."""
        segs = self._by_ray.get(ray)
        if not segs:
            return 0.0
        return max(seg.max_distance for seg in segs)

    # ------------------------------------------------------------------
    def position(self, t: float) -> RayPoint:
        """Location of the robot at time ``t``.

        Before time 0 and after the trajectory ends the robot is assumed to
        sit still (at the origin, respectively at its final position).
        """
        if t <= 0 or not self._segments:
            first_ray = self._segments[0].ray if self._segments else 0
            return RayPoint(ray=first_ray, distance=0.0)
        if t >= self.total_time:
            last = self._segments[-1]
            return RayPoint(ray=last.ray, distance=max(0.0, last.end_distance))
        # Last segment starting no later than t; step back when the previous
        # segment still covers t so that ties resolve to the earliest segment,
        # exactly as the original linear scan did.
        index = bisect_right(self._start_times, t) - 1
        while index > 0 and t <= self._segments[index - 1].end_time + _EPS:
            index -= 1
        seg = self._segments[index]
        if seg.start_time - _EPS <= t <= seg.end_time + _EPS:
            return RayPoint(ray=seg.ray, distance=max(0.0, seg.position_at(t)))
        # Unreachable given validation, but keep a defensive error.
        raise InvalidStrategyError(f"time {t} not covered by trajectory")

    def first_arrival_time(self, ray: int, distance: float) -> float:
        """First time the robot reaches ``(ray, distance)``.

        Returns ``math.inf`` when the trajectory never visits the point.
        The origin (distance 0) is considered visited at time 0 regardless
        of the ray.
        """
        if distance <= _EPS:
            return 0.0
        pieces = self._pieces.get(ray)
        if pieces is None:
            return math.inf
        _frontiers, reaches, starts, origins = pieces
        index = bisect_left(reaches, distance - _EPS)
        if index == len(reaches):
            return math.inf
        return starts[index] + abs(distance - origins[index])

    def arrival_times(self, ray: int, distance: float) -> List[float]:
        """All times at which the robot passes through ``(ray, distance)``."""
        if distance <= _EPS:
            return [0.0]
        times = [
            seg.arrival_time(distance)
            for seg in self._by_ray.get(ray, ())
            if seg.covers_distance(distance)
        ]
        return sorted(times)

    def arrival_breakpoints(self, ray: int, minimum: float = 0.0) -> List[float]:
        """Distances at which the first-arrival-time function jumps on ``ray``.

        Between consecutive breakpoints the first arrival time is of the
        form ``c + x`` (the robot reaches ``x`` on its way out during a
        fixed segment), so the supremum of ``tau(x)/x`` over any interval of
        targets is attained in the right-limit at a breakpoint.  The
        returned list contains every outward segment's *starting* frontier
        (largest distance already covered earlier), restricted to values at
        least ``minimum``, sorted and de-duplicated.
        """
        pieces = self._pieces.get(ray)
        if pieces is None:
            return []
        return [b for b in pieces[0] if b >= minimum - _EPS]

    def arrival_pieces(self, ray: int) -> Tuple[List[float], List[float], List[float]]:
        """The pieces of the first-arrival-time function on ``ray``.

        Returns three parallel lists ``(frontiers, reaches, offsets)``: on
        the ``i``-th piece, i.e. for distances in ``(frontiers[i],
        reaches[i]]``, the first arrival time is ``offsets[i] + x``.  All
        three lists are strictly increasing in radius and empty when the
        trajectory never moves on ``ray``.  This is the raw material of
        :class:`~repro.geometry.compiled.CompiledTrajectory`.
        """
        pieces = self._pieces.get(ray)
        if pieces is None:
            return [], [], []
        frontiers, reaches, starts, origins = pieces
        offsets = [start - origin for start, origin in zip(starts, origins)]
        return list(frontiers), list(reaches), offsets

    def compiled(self) -> "CompiledTrajectory":
        """The NumPy-lowered form of this trajectory, built once and cached.

        The compiled form answers batched first-arrival queries via
        ``np.searchsorted``; see :mod:`repro.geometry.compiled`.
        """
        if self._compiled is None:
            from .compiled import CompiledTrajectory

            self._compiled = CompiledTrajectory(self)
        return self._compiled

    def visits_origin_times(self) -> List[float]:
        """Times at which the robot is at the origin (segment endpoints only)."""
        times = [0.0]
        for seg in self._segments:
            if seg.end_distance <= _EPS:
                times.append(seg.end_time)
        return times

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trajectory(num_segments={len(self._segments)}, "
            f"total_time={self.total_time:.3f})"
        )


def _arrival_pieces(
    motions: Iterable[Tuple[int, float, float, float]],
) -> Dict[int, Tuple[Tuple[float, ...], ...]]:
    """Per ray, the pieces of the first-arrival-time function.

    ``motions`` are the segments in temporal order as ``(ray, start_time,
    start_distance, end_distance)``.  Every ray they move on maps to four
    parallel tuples ``(frontiers, reaches, starts, origins)``: a distance
    ``x`` in ``(frontiers[i], reaches[i]]`` is first reached on the way out
    at ``starts[i] + abs(x - origins[i])``, the start time and distance of
    the outward segment realising the piece.  Tuples of floats leave the
    garbage collector nothing to track.
    """
    columns: Dict[int, Tuple[List[float], ...]] = {}
    for ray, start_time, start_distance, end_distance in motions:
        frontiers, reaches, starts, origins = columns.setdefault(ray, ([], [], [], []))
        covered = reaches[-1] if reaches else 0.0
        if end_distance > start_distance and end_distance > covered + _EPS:
            frontiers.append(max(covered, start_distance))
            reaches.append(end_distance)
            starts.append(start_time)
            origins.append(start_distance)
    return {ray: tuple(map(tuple, column)) for ray, column in columns.items()}


class _ExcursionTrajectory(Trajectory):
    """The trajectory of an out-and-back schedule, segments built on first use.

    The arrival pieces — all the batched engines and the adversary read —
    come straight from the ``(ray, radius)`` schedule.  A memoized
    trajectory stays alive for the whole process, so deferring its
    ``Segment`` objects (until :attr:`segments`, :meth:`position` and the
    like ask for them) keeps it to a few objects the garbage collector
    must scan on every full collection, instead of dozens.
    """

    def __init__(self, excursions: Tuple[Tuple[int, float], ...]) -> None:
        self._excursions = excursions
        self._pieces = _arrival_pieces(
            (ray, start_time, 0.0, radius)
            for (ray, radius), start_time in zip(excursions, _excursion_clock(excursions))
        )
        self._compiled = None

    @cached_property
    def _segments(self) -> Tuple[Segment, ...]:
        segments: List[Segment] = []
        for (ray, radius), t in zip(self._excursions, _excursion_clock(self._excursions)):
            segments.append(
                Segment(
                    start_time=t,
                    end_time=t + radius,
                    ray=ray,
                    start_distance=0.0,
                    end_distance=radius,
                )
            )
            segments.append(
                Segment(
                    start_time=t + radius,
                    end_time=t + 2 * radius,
                    ray=ray,
                    start_distance=radius,
                    end_distance=0.0,
                )
            )
        segs = tuple(segments)
        self._validate(segs)
        return segs


def _excursion_clock(excursions: Iterable[Tuple[int, float]]) -> Iterator[float]:
    """The time each excursion leaves the origin: running sums of ``2 * radius``."""
    t = 0.0
    for _ray, radius in excursions:
        yield t
        t += 2 * radius


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Excursion:
    """One out-and-back trip: leave the origin, reach ``radius`` on ``ray``, return."""

    ray: int
    radius: float

    def __post_init__(self) -> None:
        _check_excursion(self.ray, self.radius)


def _check_excursion(ray: int, radius: float) -> None:
    if radius <= 0:
        raise InvalidStrategyError(f"excursion radius must be positive, got {radius}")
    if ray < 0:
        raise InvalidStrategyError(f"ray index must be >= 0, got {ray}")


def excursion_trajectory(excursions: Iterable[Excursion | Tuple[int, float]]) -> Trajectory:
    """Build a trajectory from a sequence of out-and-back excursions.

    Each entry is either an :class:`Excursion` or a ``(ray, radius)`` pair;
    both spell the same memo key.  The robot performs them in order,
    returning to the origin after each one; this is exactly the motion
    pattern used by the upper-bound strategy in the paper's appendix and by
    the ORC covering setting.  Equal schedules return the same (shared,
    immutable) trajectory.
    """
    return _excursion_trajectory(_excursion_key(excursions))


def one_off_excursion_trajectory(
    excursions: Iterable[Excursion | Tuple[int, float]],
) -> Trajectory:
    """:func:`excursion_trajectory` for a schedule that will not come back.

    Builds a fresh trajectory outside the process-wide memo, where a
    one-off schedule would only evict reusable ones.
    """
    return _ExcursionTrajectory(_excursion_key(excursions))


def _excursion_key(
    excursions: Iterable[Excursion | Tuple[int, float]],
) -> Tuple[Tuple[int, float], ...]:
    """Validated ``(int ray, float radius)`` pairs: the memo key of a schedule."""
    key = []
    for item in excursions:
        if isinstance(item, Excursion):
            ray, radius = item.ray, item.radius
        else:
            ray, radius = item[0], item[1]
            _check_excursion(ray, radius)
        key.append((int(ray), float(radius)))
    return tuple(key)


@lru_cache(maxsize=TRAJECTORY_MEMO_SIZE)
def _excursion_trajectory(excursions: Tuple[Tuple[int, float], ...]) -> Trajectory:
    return _ExcursionTrajectory(excursions)


def zigzag_trajectory(
    turning_points: Sequence[float],
    start_positive: bool = True,
    final_leg: Optional[float] = None,
) -> Trajectory:
    """Build a line trajectory that alternates directions without homing.

    ``turning_points`` is the sequence ``(t1, t2, t3, ...)`` of Section 2:
    the robot walks to ``+t1``, turns, walks to ``-t2``, turns, walks to
    ``+t3`` and so on (signs flipped when ``start_positive`` is False).
    All turning points must be positive; the standardisation argument of
    the paper additionally wants ``t1 <= t3 <= t5 <= ...`` and
    ``t2 <= t4 <= ...`` but that is *not* enforced here — strategy-level
    normalisation lives in :mod:`repro.strategies.validation`.

    ``final_leg`` optionally appends one last outward run to the given
    distance after the final turning point (useful to close out a finite
    horizon).  Equal inputs return the same (shared, immutable) trajectory.
    """
    return _zigzag_trajectory(
        tuple(float(t) for t in turning_points),
        bool(start_positive),
        None if final_leg is None else float(final_leg),
    )


@lru_cache(maxsize=TRAJECTORY_MEMO_SIZE)
def _zigzag_trajectory(
    points: Tuple[float, ...], start_positive: bool, final_leg: Optional[float]
) -> Trajectory:
    for t in points:
        if t <= 0:
            raise InvalidStrategyError(
                f"turning points must be positive, got {t}"
            )
    segments: List[Segment] = []
    time = 0.0
    position = 0.0  # signed coordinate
    direction = 1.0 if start_positive else -1.0

    def ray_of(sign: float) -> int:
        return POSITIVE_RAY if sign > 0 else NEGATIVE_RAY

    def add_leg(target_signed: float) -> None:
        nonlocal time, position
        if abs(target_signed - position) <= _EPS:
            return
        # Split the leg at the origin if it crosses it.
        waypoints = [position, target_signed]
        if position * target_signed < -_EPS:
            waypoints = [position, 0.0, target_signed]
        for start, end in zip(waypoints[:-1], waypoints[1:]):
            span = abs(end - start)
            if span <= _EPS:
                continue
            sign = start + end  # whichever endpoint is non-zero determines the ray
            ray = ray_of(sign if abs(sign) > _EPS else direction)
            segments.append(
                Segment(
                    start_time=time,
                    end_time=time + span,
                    ray=ray,
                    start_distance=abs(start),
                    end_distance=abs(end),
                )
            )
            time += span
        position = target_signed

    for turning_point in points:
        add_leg(direction * turning_point)
        direction = -direction
    if final_leg is not None:
        if final_leg <= 0:
            raise InvalidStrategyError(
                f"final_leg must be positive, got {final_leg}"
            )
        add_leg(direction * final_leg)
    return Trajectory(segments)


def straight_trajectory(ray: int, distance: float) -> Trajectory:
    """A robot that walks straight out to ``distance`` on ``ray`` and stops.

    This is the building block of the trivial strategy for ``k >= m(f+1)``:
    send ``f + 1`` robots straight down each ray and the target is confirmed
    at time exactly ``|x|`` (ratio 1).
    """
    if distance <= 0:
        raise InvalidStrategyError(f"distance must be positive, got {distance}")
    return Trajectory(
        [
            Segment(
                start_time=0.0,
                end_time=distance,
                ray=ray,
                start_distance=0.0,
                end_distance=distance,
            )
        ]
    )


def idle_trajectory() -> Trajectory:
    """A robot that never leaves the origin (useful as a degenerate baseline)."""
    return Trajectory([])
