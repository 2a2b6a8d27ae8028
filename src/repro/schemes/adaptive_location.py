"""Adaptive location-based scheme (paper Section 3.2 -- second contribution).

The location scheme with threshold ``A(n)``: zero below ``n1`` neighbors
(forcing sparse hosts to rebroadcast), rising linearly to
``EAC(2)/pi r^2 = 0.187`` at ``n2`` and constant after.  The tuned values
from Fig. 9 are ``(n1, n2) = (6, 12)``.
"""

from __future__ import annotations

from typing import Optional

from repro.schemes.location import LocationScheme
from repro.schemes.registry import ParamSpec, register_scheme
from repro.schemes.thresholds import (
    DEFAULT_LOCATION_N1,
    DEFAULT_LOCATION_N2,
    EAC2_FRACTION,
    make_location_threshold,
)

__all__ = ["AdaptiveLocationScheme"]


@register_scheme(
    params=(
        ParamSpec("n1", "int", minimum=1,
                  doc=f"force rebroadcast up to n1 neighbors "
                      f"(default {DEFAULT_LOCATION_N1})"),
        ParamSpec("n2", "int", minimum=2,
                  doc=f"reach the a_max plateau at n2 neighbors "
                      f"(default {DEFAULT_LOCATION_N2})"),
        ParamSpec("a_max", "float", minimum=0.0, maximum=1.0,
                  doc=f"plateau of A(n) as a fraction of pi r^2 "
                      f"(default {EAC2_FRACTION})"),
    ),
    description="location scheme with adaptive threshold A(n)",
    origin="this paper",
)
class AdaptiveLocationScheme(LocationScheme):
    """Location scheme with threshold ``A(n)``, shaped by the curve knobs
    ``(n1, n2, a_max)``."""

    name = "adaptive-location"
    needs_hello = True

    def __init__(
        self,
        n1: Optional[int] = None,
        n2: Optional[int] = None,
        a_max: Optional[float] = None,
    ) -> None:
        super().__init__(threshold=0.0)
        self.threshold_fn = make_location_threshold(
            n1 if n1 is not None else DEFAULT_LOCATION_N1,
            n2 if n2 is not None else DEFAULT_LOCATION_N2,
            a_max if a_max is not None else EAC2_FRACTION,
        )

    def describe(self) -> str:
        return f"AL[{self.threshold_fn.label}]"

    def current_threshold(self) -> float:
        return self.threshold_fn(self.host.neighbor_count())

    def trace_provenance(self, state):
        n = self.host.neighbor_count()
        return (n, self.threshold_fn(n), state.assessment.ac)
