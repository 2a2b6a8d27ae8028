"""Threshold functions ``C(n)`` and ``A(n)`` (paper Figs. 3, 4, 6, 8).

The adaptive counter scheme uses an integer threshold function ``C(n)`` of
the neighbor count with the tuned shape of Section 4.1: ``C(n) = n + 1``
up to ``n1`` (= 4), a plateau of ``n1 + 1``, a decreasing mid-curve, and the
floor value 2 from ``n2`` (= 12) on.

The adaptive location scheme uses a real-valued ``A(n)``: 0 up to ``n1``
(= 6, forcing rebroadcast), rising linearly to ``EAC(2)/pi r^2 = 0.187`` at
``n2`` (= 12) and constant after.

The paper reports only the *abstract* shape of the tuned mid-curve (the
"solid line" of Fig. 6); we provide the three qualitative candidates the
figure sketches (linear, convex = drop-early, concave = drop-late) and use
the rounded **linear** curve as the suggested default.  EXPERIMENTS.md
records this choice; Fig. 5d's bench compares all three, reproducing the
tuning experiment itself.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

__all__ = [
    "CounterThresholdFn",
    "LocationThresholdFn",
    "counter_sequence",
    "make_counter_threshold",
    "make_location_threshold",
    "midcurve_values",
    "MIDCURVE_SHAPES",
    "EAC2_FRACTION",
    "DEFAULT_COUNTER_N1",
    "DEFAULT_COUNTER_N2",
    "DEFAULT_LOCATION_N1",
    "DEFAULT_LOCATION_N2",
    "FIG5A_SEQUENCES",
    "FIG5B_SEQUENCES",
]

CounterThresholdFn = Callable[[int], int]
LocationThresholdFn = Callable[[int], float]

#: ``EAC(2) / (pi r^2)``: the plateau of A(n) (paper Section 3.2).
EAC2_FRACTION = 0.187

DEFAULT_COUNTER_N1 = 4
DEFAULT_COUNTER_N2 = 12
DEFAULT_LOCATION_N1 = 6
DEFAULT_LOCATION_N2 = 12

MIDCURVE_SHAPES = ("linear", "convex", "concave")


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def counter_sequence(values: Sequence[int], name: str = "") -> CounterThresholdFn:
    """``C(n)`` from an explicit sequence ``x1 x2 x3 ...`` (paper notation).

    ``C(n) = values[n - 1]``; indices past the end repeat the last value.
    ``C(0)`` (no known neighbors) maps to ``values[0]``, which keeps an
    isolated host on the forced-rebroadcast side.
    """
    if not values:
        raise ValueError("sequence must be non-empty")
    if any(v < 2 for v in values):
        raise ValueError(f"sequence thresholds below 2 never rebroadcast: {values}")
    seq: List[int] = list(values)

    def threshold(n: int) -> int:
        if n < 0:
            raise ValueError(f"neighbor count must be >= 0, got {n}")
        index = max(0, min(n - 1, len(seq) - 1))
        return seq[index]

    # Single-digit sequences keep the paper's compact "234" notation; any
    # threshold >= 10 forces a delimiter ([2, 10] must not read as "210").
    if any(v >= 10 for v in seq):
        label = "-".join(str(v) for v in seq)
    else:
        label = "".join(str(v) for v in seq)
    threshold.label = name or label  # type: ignore[attr-defined]
    return threshold


def midcurve_values(n1: int, n2: int, shape: str) -> List[int]:
    """The decreasing curve ``C(n)`` for ``n1 < n < n2`` (paper Fig. 6).

    All shapes start from ``C(n1) = n1 + 1`` and end at ``C(n2) = 2``:

    - ``"linear"`` -- straight interpolation, rounded half-up (the default).
    - ``"convex"`` -- drops early, hugging the floor.
    - ``"concave"`` -- holds high, drops late.
    """
    if shape not in MIDCURVE_SHAPES:
        raise ValueError(f"unknown midcurve shape {shape!r}; use {MIDCURVE_SHAPES}")
    high = n1 + 1
    low = 2
    span = n2 - n1
    values = []
    for n in range(n1 + 1, n2):
        t = (n - n1) / span
        if shape == "linear":
            y = high - (high - low) * t
        elif shape == "convex":
            y = low + (high - low) * (1.0 - t) ** 2
        else:  # concave
            y = high - (high - low) * t ** 2
        values.append(max(low, min(high, _round_half_up(y))))
    return values


def make_counter_threshold(
    n1: int = DEFAULT_COUNTER_N1,
    n2: int = DEFAULT_COUNTER_N2,
    shape: str = "linear",
) -> CounterThresholdFn:
    """The tuned adaptive-counter ``C(n)`` (paper Fig. 3 shape).

    ``C(n) = n + 1`` for ``n <= n1``; the chosen mid-curve for
    ``n1 < n < n2``; ``C(n) = 2`` for ``n >= n2``.
    """
    if not 1 <= n1 < n2:
        raise ValueError(f"need 1 <= n1 < n2, got n1={n1}, n2={n2}")
    rising = [n + 1 for n in range(1, n1 + 1)]
    middle = midcurve_values(n1, n2, shape)
    fn = counter_sequence(
        rising + middle + [2], name=f"AC(n1={n1},n2={n2},{shape})"
    )
    return fn


def make_location_threshold(
    n1: int = DEFAULT_LOCATION_N1,
    n2: int = DEFAULT_LOCATION_N2,
    a_max: float = EAC2_FRACTION,
) -> LocationThresholdFn:
    """The adaptive-location ``A(n)`` (paper Fig. 4 / Fig. 8).

    0 for ``n <= n1`` (force rebroadcast), linear between ``n1`` and ``n2``,
    ``a_max`` for ``n >= n2``.
    """
    if not 1 <= n1 < n2:
        raise ValueError(f"need 1 <= n1 < n2, got n1={n1}, n2={n2}")
    if not 0 < a_max <= 1:
        raise ValueError(f"a_max must be in (0, 1], got {a_max}")

    def threshold(n: int) -> float:
        if n < 0:
            raise ValueError(f"neighbor count must be >= 0, got {n}")
        if n <= n1:
            return 0.0
        if n >= n2:
            return a_max
        return a_max * (n - n1) / (n2 - n1)

    threshold.label = f"AL(n1={n1},n2={n2})"  # type: ignore[attr-defined]
    return threshold


def _slope_sequence(slope_denominator: int, top: int = 5) -> List[int]:
    """Fig. 5a sequences: climb from 2 to ``top`` one step per
    ``slope_denominator`` values of n, then plateau."""
    values = []
    level = 2
    while level < top:
        values.extend([level] * slope_denominator)
        level += 1
    values.append(top)
    return values


#: Fig. 5a candidates, keyed by slope (1/3, 1/2, 1).
FIG5A_SEQUENCES: Dict[str, List[int]] = {
    "slope-1/3": _slope_sequence(3),  # 2 2 2 3 3 3 4 4 4 5 ...
    "slope-1/2": _slope_sequence(2),  # 2 2 3 3 4 4 5 ...
    "slope-1": _slope_sequence(1),  # 2 3 4 5 ...
}

#: Fig. 5b candidates: C(n) = n + 1 capped at n1 + 1, for n1 = 2..5.
FIG5B_SEQUENCES: Dict[int, List[int]] = {
    n1: [n + 1 for n in range(1, n1 + 1)] for n1 in (2, 3, 4, 5)
}
