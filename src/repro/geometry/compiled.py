"""NumPy-lowered trajectories for batched first-arrival queries.

The scalar :class:`~repro.geometry.trajectory.Trajectory` answers one
first-arrival query at a time.  The hot paths of the library — the
adversary's best response and the ratio-profile curves — ask the same
question for *thousands* of target distances on the same ray, which makes
the per-call Python overhead dominate.  This module lowers a trajectory's
per-ray arrival pieces into sorted NumPy arrays once, after which a batch of
``T`` queries costs a single ``np.searchsorted`` plus one gather:

* on piece ``i`` (distances in ``(breakpoints[i], reaches[i]]``) the first
  arrival time is ``offsets[i] + x`` — the robot reaches ``x`` on its way
  out during a fixed outward segment;
* beyond ``reaches[-1]`` the point is never visited (``inf``);
* the origin is visited at time 0 regardless of the ray.

Use :meth:`Trajectory.compiled` to obtain the (cached) compiled form; the
scalar trajectory remains the reference oracle and the two are checked
against each other to 1e-9 by ``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Optional

import numpy as np

from .trajectory import _EPS, Trajectory

__all__ = ["CompiledRay", "CompiledTrajectory"]


def _read_only(values) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    array.flags.writeable = False
    return array


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
