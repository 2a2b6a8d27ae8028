"""Multi-circle coverage estimation.

The location-based schemes need, for a host ``x`` that has heard the same
broadcast from transmitters at positions ``q_1 .. q_k``, the fraction of
``x``'s own radio disk **not** covered by any of the ``q_i`` disks -- the
additional coverage ``ac`` of Section 3.2.  There is no simple closed form
for k >= 2 overlapping circles, so we estimate it over a deterministic set of
sample points (a Fibonacci-spiral disk lattice, which is near-uniform and,
being deterministic, keeps simulations replayable).  A query tests the whole
lattice against every covering disk in one numpy evaluation.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["DiskSampler", "uncovered_fraction"]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class DiskSampler:
    """Deterministic near-uniform sample points inside a unit disk.

    Points follow the Fibonacci (sunflower) spiral: point *i* of *N* sits at
    radius ``sqrt((i + 0.5) / N)`` and angle ``i * golden_angle``.  The
    lattice is a ``(2, N)`` array computed once; the last radius it was
    scaled to is kept with its scaled copy, so a run with one radio radius
    scales it once.

    Every query returns the float a per-point loop would: each sample point
    is ``center + unit * radius`` and each test ``dx * dx + dy * dy <=
    covering_radius * covering_radius``, the same float operations in the
    same order (DESIGN §4h).
    """

    def __init__(self, num_points: int = 256) -> None:
        if num_points <= 0:
            raise ValueError(f"num_points must be positive, got {num_points}")
        self.num_points = num_points
        xs, ys = [], []
        for i in range(num_points):
            radius = math.sqrt((i + 0.5) / num_points)
            theta = i * _GOLDEN_ANGLE
            xs.append(radius * math.cos(theta))
            ys.append(radius * math.sin(theta))
        self._unit = np.array([xs, ys])
        self._scaled_by = (1.0, self._unit)  # unit * 1.0 is unit, exactly

    def _scaled(self, radius: float) -> np.ndarray:
        """``unit * radius``, recomputed only when ``radius`` changes."""
        cached_radius, scaled = self._scaled_by
        if cached_radius != radius:
            scaled = self._unit * radius
            self._scaled_by = (radius, scaled)
        return scaled

    def points(
        self, center: Tuple[float, float], radius: float
    ) -> List[Tuple[float, float]]:
        """The lattice scaled to a disk of ``radius`` at ``center``."""
        cx, cy = center
        sx, sy = self._scaled(radius)
        return list(zip((sx + cx).tolist(), (sy + cy).tolist()))

    def uncovered_fraction(
        self,
        center: Tuple[float, float],
        radius: float,
        covering_centers: Iterable[Tuple[float, float]],
        covering_radius: float,
    ) -> float:
        """Fraction of the disk at ``center`` not covered by any covering disk.

        This is the location-scheme ``ac`` value: 1.0 when nothing covers the
        host's disk, 0.0 when the heard transmitters jointly blanket it.
        """
        centers = list(covering_centers)
        if not centers:
            return 1.0
        q = np.array(centers)
        sx, sy = self._scaled(radius)
        cx, cy = center
        # One row per covering center, one column per sample point.
        dx = (sx + cx) - q[:, 0, None]
        dy = (sy + cy) - q[:, 1, None]
        dx *= dx
        dy *= dy
        dx += dy
        covered = (dx <= covering_radius * covering_radius).any(axis=0)
        uncovered = self.num_points - int(np.count_nonzero(covered))
        return uncovered / self.num_points


_DEFAULT_SAMPLER = DiskSampler(256)


def uncovered_fraction(
    center: Tuple[float, float],
    radius: float,
    covering_centers: Sequence[Tuple[float, float]],
    covering_radius: float,
) -> float:
    """Module-level convenience using a shared 256-point sampler."""
    return _DEFAULT_SAMPLER.uncovered_fraction(
        center, radius, covering_centers, covering_radius
    )
