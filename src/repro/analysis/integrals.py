"""Closed-form / quadrature results quoted in paper Section 2.2.

All results are normalized by the disk area ``pi r^2`` and are independent of
``r`` (the integrals are evaluated at ``r = 1``).

- Maximum additional coverage of a single rebroadcast: ``1 - INTC(r)/(pi r^2)
  ~= 0.61`` (at sender distance exactly ``r``).
- Average additional coverage over a uniformly random rebroadcaster inside
  the sender's disk: ``int_0^r (2x/r^2) [pi r^2 - INTC(x)] dx / (pi r^2)
  ~= 0.41``.
- Expected probability that a second random receiver contends with a first:
  ``int_0^r (2x/r^2) INTC(x)/(pi r^2) dx ~= 0.59``.

The two quadratures import scipy when they are called, so importing this
module (and every package that imports it) does not load scipy.
"""

from __future__ import annotations

import math

from repro.geometry.circles import lens_area

__all__ = [
    "max_additional_coverage_fraction",
    "mean_additional_coverage_fraction",
    "expected_contention_probability",
]


def max_additional_coverage_fraction() -> float:
    """``(pi r^2 - INTC(r)) / (pi r^2)``; the paper's ~0.61 bound."""
    return (math.pi - lens_area(1.0, 1.0)) / math.pi


def mean_additional_coverage_fraction() -> float:
    """Average additional-coverage fraction over a random in-range host.

    The rebroadcaster is uniform in the sender's disk, so its distance has
    density ``2x / r^2`` on ``[0, r]``.  The paper reports ~0.41.
    """
    from scipy.integrate import quad

    def integrand(x: float) -> float:
        return 2.0 * x * (math.pi - lens_area(1.0, x)) / math.pi

    value, _abserr = quad(integrand, 0.0, 1.0)
    return value


def expected_contention_probability() -> float:
    """Probability a second uniform in-range host contends with the first.

    Host B is uniform in sender A's disk; a contender C must fall in the
    lens ``S_{A & B}``, with probability ``INTC(x)/(pi r^2)`` where ``x`` is
    the A-B distance.  The paper reports ~59 %.
    """
    from scipy.integrate import quad

    def integrand(x: float) -> float:
        return 2.0 * x * lens_area(1.0, x) / math.pi

    value, _abserr = quad(integrand, 0.0, 1.0)
    return value
