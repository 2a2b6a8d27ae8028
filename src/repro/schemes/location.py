"""Fixed-threshold location-based scheme (from [15], Section 2.3.2).

Each host knows its own GPS position and every relayed packet copy carries
its transmitter's position, so a receiver can compute ``ac`` -- the exact
fraction of its radio disk not yet covered by the transmitters it heard the
packet from.  The rebroadcast is inhibited when ``ac < A`` for the constant
threshold ``A``.  The paper's simulated values: A = 0.1871, 0.0469, 0.0134
(fractions of ``pi r^2``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.geometry.coverage import uncovered_fraction
from repro.net.packets import BroadcastPacket
from repro.schemes.base import DeferredRebroadcastScheme, PendingBroadcast
from repro.schemes.registry import ParamSpec, register_scheme

__all__ = ["LocationScheme", "CoverageAssessment"]


class CoverageAssessment:
    """Heard transmitter positions plus the cached uncovered fraction."""

    __slots__ = ("positions", "ac")

    def __init__(self) -> None:
        self.positions: List[Tuple[float, float]] = []
        self.ac = 1.0


@register_scheme(
    params=(
        ParamSpec("threshold", "float", 0.0469, minimum=0.0, maximum=1.0,
                  doc="inhibit when additional coverage (fraction of "
                      "pi r^2) drops below A"),
    ),
    description="fixed-threshold additional coverage A",
    origin="[15]",
)
class LocationScheme(DeferredRebroadcastScheme):
    """Inhibit when the additional coverage drops below a constant ``A``."""

    name = "location"
    needs_position = True

    def __init__(self, threshold: float = 0.0469) -> None:
        if not 0 <= threshold <= 1:
            raise ValueError(
                f"location threshold is a fraction of pi r^2, got {threshold}"
            )
        super().__init__()
        self.threshold = threshold

    def describe(self) -> str:
        return f"A={self.threshold:g}"

    def current_threshold(self) -> float:
        """The threshold in force right now (constant here; adaptive in
        subclasses)."""
        return self.threshold

    def _recompute(self, assessment: CoverageAssessment) -> None:
        assessment.ac = uncovered_fraction(
            self.host.position(),
            self.host.radio_radius(),
            assessment.positions,
            self.host.radio_radius(),
        )

    def init_assessment(
        self,
        packet: BroadcastPacket,
        sender_id: int,
        sender_position: Optional[Tuple[float, float]],
    ) -> CoverageAssessment:
        assessment = CoverageAssessment()
        if sender_position is not None:
            assessment.positions.append(sender_position)
            self._recompute(assessment)
        return assessment

    def update_assessment(
        self,
        state: PendingBroadcast,
        sender_id: int,
        sender_position: Optional[Tuple[float, float]],
    ) -> None:
        if sender_position is None:
            return
        state.assessment.positions.append(sender_position)
        self._recompute(state.assessment)

    def should_inhibit(self, state: PendingBroadcast) -> bool:
        return state.assessment.ac < self.current_threshold()

    def trace_provenance(self, state: PendingBroadcast):
        return (None, self.current_threshold(), state.assessment.ac)
