"""Expected additional coverage ``EAC(k)`` -- paper Fig. 1.

``EAC(k)`` is the expected area a host's rebroadcast newly covers after the
host has already heard the same broadcast ``k`` times.  The paper obtains it
"by randomly generating k hosts in a host['s] transmission range and
calculating the area covered by the latter excluding those already covered by
the former k hosts".  We do exactly that: the k prior transmitters are drawn
uniformly from the host's radio disk and the uncovered fraction of the host's
own disk is estimated with the deterministic lattice of
:class:`repro.geometry.coverage.DiskSampler`.

Reference values from the figure: ``EAC(1) ~= 0.41 pi r^2`` and
``EAC(k) < 0.05 pi r^2`` for ``k >= 4``.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional

from repro.geometry.coverage import DiskSampler

__all__ = ["expected_additional_coverage", "eac_table"]


def _uniform_point_in_disk(rng: random.Random, radius: float) -> tuple:
    """Uniform point in a disk of ``radius`` centered at the origin."""
    r = radius * math.sqrt(rng.random())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return (r * math.cos(theta), r * math.sin(theta))


def expected_additional_coverage(
    k: int,
    trials: int = 2000,
    rng: Optional[random.Random] = None,
    sampler: Optional[DiskSampler] = None,
    radius: float = 1.0,
) -> float:
    """Monte-Carlo estimate of ``EAC(k) / (pi r^2)``.

    Args:
        k: number of times the host has already heard the packet (>= 1).
        trials: Monte-Carlo repetitions.
        rng: random source (a fresh ``Random(0)`` if omitted).
        sampler: coverage lattice (shared 512-point sampler if omitted).
        radius: the radio radius; the result is scale-free, the parameter
            exists only to exercise unit handling in tests.

    Returns:
        The expected *fraction* of the host's disk left uncovered, i.e.
        ``EAC(k) / (pi r^2)``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if rng is None:
        rng = random.Random(0)
    if sampler is None:
        sampler = _DEFAULT_SAMPLER
    total = 0.0
    host = (0.0, 0.0)
    for _ in range(trials):
        transmitters = [_uniform_point_in_disk(rng, radius) for _ in range(k)]
        total += sampler.uncovered_fraction(host, radius, transmitters, radius)
    return total / trials


def eac_table(
    max_k: int = 10,
    trials: int = 2000,
    seed: int = 0,
) -> Dict[int, float]:
    """``EAC(k)/(pi r^2)`` for ``k = 1 .. max_k`` (the Fig. 1 series)."""
    rng = random.Random(seed)
    return {
        k: expected_additional_coverage(k, trials=trials, rng=rng)
        for k in range(1, max_k + 1)
    }


_DEFAULT_SAMPLER = DiskSampler(512)
