"""NumPy-lowered trajectories and teams for batched first-arrival queries.

The scalar :class:`~repro.geometry.trajectory.Trajectory` answers one
first-arrival query at a time.  The hot paths of the library — the
adversary's best response, the ratio-profile curves and the Monte-Carlo
detection — ask the same question for many targets and *every* robot of a
strategy at once, which makes the per-call Python overhead dominate.  This
module lowers the arrival functions into sorted NumPy arrays once, at two
levels:

* :class:`CompiledTrajectory` — one robot.  Per ray it holds the pieces of
  the first-arrival-time function: on piece ``i`` (distances in
  ``(breakpoints[i], reaches[i]]``) the first arrival time is
  ``offsets[i] + x`` — the robot reaches ``x`` on its way out during a
  fixed outward segment; beyond ``reaches[-1]`` the point is never visited
  (``inf``); the origin is visited at time 0 regardless of the ray.  It is
  cached on the trajectory (:meth:`Trajectory.compiled`) and is the
  per-robot reference the team kernel is tested against.
* :class:`CompiledTeam` — all robots of a strategy.  Per ray it holds the
  sorted union of every robot's reaches and a ``(robots, union + 1)``
  table of piece offsets (``inf`` past a robot's last piece).  Each robot's
  piece index is constant between consecutive union values, so the
  ``(robots, targets)`` arrival matrix of any set of targets costs one
  ``np.searchsorted`` per ray, one gather and one add — the same two floats
  the per-robot lookup adds, so the results are bit-identical.  Teams of
  memoized trajectories come from a bounded process-wide memo
  (:func:`compiled_team`), which also caches the adversary's candidate
  targets per ray.

The scalar trajectory remains the reference oracle and the engines are
checked against it to 1e-9 by ``tests/test_engine_equivalence.py``; the
team kernel is checked against :class:`CompiledTrajectory` for exact
equality by ``tests/test_compiled_team.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .rays import RayPoint
from .trajectory import _EPS, TRAJECTORY_MEMO_SIZE, Trajectory

__all__ = [
    "CompiledRay",
    "CompiledTrajectory",
    "CompiledTeam",
    "TargetPool",
    "compiled_team",
]


def _read_only(values) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class TargetPool:
    """A pool of targets as two columns: ``rays`` and ``distances``.

    The batched kernels read the columns directly; indexing or iterating
    the pool yields :class:`~repro.geometry.rays.RayPoint` s, built once on
    first use.  A pool made by :meth:`of` from points holds exactly their
    rays and distances.
    """

    rays: np.ndarray
    distances: np.ndarray

    @classmethod
    def of(cls, targets: Union["TargetPool", Sequence[RayPoint]]) -> "TargetPool":
        """``targets`` as a pool (a pool is returned as it is)."""
        if isinstance(targets, TargetPool):
            return targets
        count = len(targets)
        pool = cls(
            rays=np.fromiter((target.ray for target in targets), np.intp, count),
            distances=np.fromiter(
                (target.distance for target in targets), float, count
            ),
        )
        # Indexing the pool gives back the caller's own points.
        object.__setattr__(pool, "points", tuple(targets))
        return pool

    @cached_property
    def points(self) -> Tuple[RayPoint, ...]:
        """The targets as :class:`~repro.geometry.rays.RayPoint` s."""
        return tuple(
            RayPoint(ray=ray, distance=distance)
            for ray, distance in zip(self.rays.tolist(), self.distances.tolist())
        )

    def __len__(self) -> int:
        return int(self.distances.size)

    def __getitem__(self, index: int) -> RayPoint:
        return self.points[index]

    def __iter__(self) -> Iterator[RayPoint]:
        return iter(self.points)


@dataclass(frozen=True)
class CompiledRay:
    """The first-arrival-time function of one robot on one ray, as arrays.

    Attributes
    ----------
    breakpoints:
        Piece lower radii — the frontier already covered when each outward
        extension starts.  ``breakpoints[0]`` is 0; the array is strictly
        increasing.
    reaches:
        Piece upper radii (the frontier after each extension), strictly
        increasing; ``reaches[-1]`` is the farthest distance ever visited.
    offsets:
        Arrival-offset constants ``c``: the first arrival at distance ``x``
        in piece ``i`` is ``offsets[i] + x``.
    """

    breakpoints: np.ndarray
    reaches: np.ndarray
    offsets: np.ndarray

    @property
    def max_reach(self) -> float:
        """Farthest distance from the origin ever visited on this ray."""
        return float(self.reaches[-1])

    @cached_property
    def _offsets_or_inf(self) -> np.ndarray:
        """``offsets`` plus a trailing ``inf`` for distances beyond every piece."""
        return _read_only(np.append(self.offsets, math.inf))


class CompiledTrajectory:
    """Per-ray compiled arrival functions of one trajectory.

    Built from (and cached on) a :class:`Trajectory`; see the module
    docstring for the representation.  A trajectory may be shared by every
    strategy in the process (see :data:`~repro.geometry.trajectory.TRAJECTORY_MEMO_SIZE`),
    so the arrays are read-only.
    """

    __slots__ = ("_rays",)

    def __init__(self, trajectory: Trajectory) -> None:
        self._rays: Dict[int, CompiledRay] = {}
        for ray in trajectory.rays_visited():
            frontiers, reaches, offsets = trajectory.arrival_pieces(ray)
            if not reaches:
                continue
            self._rays[ray] = CompiledRay(
                breakpoints=_read_only(frontiers),
                reaches=_read_only(reaches),
                offsets=_read_only(offsets),
            )

    def rays(self) -> Iterable[int]:
        """Ray indices on which the trajectory ever moves."""
        return self._rays.keys()

    def ray(self, ray: int) -> Optional[CompiledRay]:
        """The compiled arrival function on ``ray`` (``None`` if never visited)."""
        return self._rays.get(ray)

    def max_reach(self, ray: int) -> float:
        """Farthest distance ever visited on ``ray`` (0 when never visited)."""
        data = self._rays.get(ray)
        return data.max_reach if data is not None else 0.0

    def first_arrival_times(self, ray: int, distances: np.ndarray) -> np.ndarray:
        """First arrival times at a batch of distances on ``ray``.

        Vectorized equivalent of
        :meth:`Trajectory.first_arrival_time`: entries beyond the swept
        frontier are ``inf`` and distances within ``1e-12`` of the origin
        are visited at time 0.  The ``- _EPS`` shift reproduces the scalar
        path's coverage tolerance, so both engines select the same piece
        even exactly at a breakpoint.
        """
        distances = np.asarray(distances, dtype=float)
        data = self._rays.get(ray)
        if data is None:
            out = np.full(distances.shape, math.inf)
        else:
            # A distance beyond the last piece indexes the trailing inf.
            index = np.searchsorted(data.reaches, distances - _EPS, side="left")
            out = data._offsets_or_inf[index] + distances
        np.copyto(out, 0.0, where=distances <= _EPS)
        return out


class CompiledTeam:
    """The first-arrival functions of a whole team of robots, fused per ray.

    One table holds every ray's ``(robots, union + 1)`` block of piece
    offsets side by side, after a leading ``inf`` column that every target
    on a ray no robot visits indexes; see the module docstring for the
    representation.  Teams of memoized trajectories are shared through
    :func:`compiled_team`, so the arrays are read-only.
    """

    __slots__ = ("_trajectories", "_rays", "_table", "_candidates")

    def __init__(self, trajectories: Sequence[Trajectory]) -> None:
        self._trajectories = tuple(trajectories)
        # Per visited ray: the table column of its first union gap and the
        # sorted union of every robot's reaches.
        self._rays: Dict[int, Tuple[int, np.ndarray]] = {}
        rows = [[math.inf] for _ in self._trajectories]
        width = 1
        visited = {ray for robot in self._trajectories for ray in robot.rays_visited()}
        for ray in sorted(visited):
            pieces = [robot.arrival_pieces(ray) for robot in self._trajectories]
            union = sorted({reach for _low, reaches, _c in pieces for reach in reaches})
            self._rays[ray] = (width, _read_only(union))
            width += len(union) + 1
            for row, (_frontiers, reaches, offsets) in zip(rows, pieces):
                # Gap j holds the distances in (union[j-1], union[j]]; the
                # robot's piece there is the count of its reaches at or
                # below union[j-1], and past its last piece it is inf.
                offsets = [*offsets, math.inf]
                piece = 0
                row.append(offsets[0])
                for reach in union:
                    if piece < len(reaches) and reaches[piece] == reach:
                        piece += 1
                    row.append(offsets[piece])
        self._table = _read_only(np.array(rows, dtype=float).reshape(len(rows), width))
        self._candidates: Dict[Tuple[int, float], np.ndarray] = {}

    def columns(self, ray: int, distances: np.ndarray) -> np.ndarray:
        """Table columns of a batch of distances on ``ray``.

        The ``- _EPS`` shift reproduces the scalar path's coverage
        tolerance, exactly as :meth:`CompiledTrajectory.first_arrival_times`
        applies it per robot.
        """
        distances = np.asarray(distances, dtype=float)
        entry = self._rays.get(ray)
        if entry is None:
            return np.zeros(distances.shape, dtype=np.intp)
        base, union = entry
        return np.searchsorted(union, distances - _EPS, side="left") + base

    def arrivals(self, columns: np.ndarray, distances: np.ndarray) -> np.ndarray:
        """The ``(robots, targets)`` first-arrival matrix of located targets.

        ``columns`` come from :meth:`columns` (one ray per call, so targets
        on several rays concatenate their columns); entries beyond a
        robot's frontier are ``inf`` and distances within ``1e-12`` of the
        origin are visited at time 0.
        """
        distances = np.asarray(distances, dtype=float)
        out = self._table.take(columns, axis=1)
        out += distances
        np.copyto(out, 0.0, where=distances <= _EPS)
        return out

    def arrival_matrix(self, ray: int, distances: np.ndarray) -> np.ndarray:
        """The ``(robots, targets)`` first-arrival matrix on one ray."""
        distances = np.asarray(distances, dtype=float).reshape(-1)
        return self.arrivals(self.columns(ray, distances), distances)

    def pool_arrival_matrix(
        self, targets: Union[TargetPool, Sequence[RayPoint]]
    ) -> np.ndarray:
        """The ``(robots, targets)`` matrix of a pool of targets on mixed rays.

        Column ``i`` is target ``i``; one ``np.searchsorted`` per visited
        ray locates them all.
        """
        pool = TargetPool.of(targets)
        rays, distances = pool.rays, pool.distances
        columns = np.zeros(distances.size, dtype=np.intp)
        for ray in self._rays:
            on_ray = rays == ray
            if on_ray.any():
                columns[on_ray] = self.columns(ray, distances[on_ray])
        return self.arrivals(columns, distances)

    def candidates(self, ray: int, min_distance: float, horizon: float) -> np.ndarray:
        """:func:`~repro.faults.adversary.candidate_distances` up to ``horizon``.

        The candidates without a horizon are enumerated once per ``(ray,
        min_distance)`` and each horizon keeps their prefix up to it (never
        less than ``min_distance`` itself).  The enumeration's merge of
        near-duplicates is a left-to-right greedy, so that prefix is
        exactly the enumeration clipped at ``horizon``.
        """
        key = (ray, min_distance)
        every = self._candidates.get(key)
        if every is None:
            from ..faults.adversary import candidate_distances

            every = self._candidates[key] = _read_only(
                candidate_distances(self._trajectories, ray, min_distance=min_distance)
            )
        return every[: max(1, int(np.searchsorted(every, horizon, side="right")))]


@lru_cache(maxsize=TRAJECTORY_MEMO_SIZE)
def _compiled_team(trajectories: Tuple[Trajectory, ...]) -> CompiledTeam:
    """The memo itself, keyed by the trajectories' identities."""
    return CompiledTeam(trajectories)


@lru_cache(maxsize=1)
def _one_off_team(trajectories: Tuple[Trajectory, ...]) -> CompiledTeam:
    """The latest team of trajectories the memo does not share."""
    return CompiledTeam(trajectories)


def compiled_team(trajectories: Sequence[Trajectory]) -> CompiledTeam:
    """The :class:`CompiledTeam` of ``trajectories``.

    A team made only of memoized trajectories (the ones
    :func:`~repro.geometry.trajectory.excursion_trajectory` and
    :func:`~repro.geometry.trajectory.zigzag_trajectory` share) comes from
    a process-wide memo of :data:`TRAJECTORY_MEMO_SIZE` entries.  Any
    other team — a sampled schedule, a per-horizon straight trajectory —
    stays out of that memo, so it cannot evict the reusable ones; only
    the latest such team is kept, which the adversary's candidate
    enumeration and its batched pass over the same trajectories share.
    """
    key = tuple(trajectories)
    if all(trajectory._memoized for trajectory in key):
        return _compiled_team(key)
    return _one_off_team(key)
