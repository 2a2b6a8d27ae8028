"""Routing-protocol messages.

A :class:`RouteRequest` *is a* :class:`~repro.net.packets.BroadcastPacket`,
so the host's configured rebroadcast scheme (flooding, counter, adaptive,
neighbor coverage, ...) propagates it unchanged -- the integration point the
paper's introduction describes.  Sequence numbers for RREQs live in a
dedicated high range so they can never collide with the experiment
harness's data-broadcast keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.net.packets import BroadcastPacket

__all__ = ["RouteRequest", "RouteReply", "DataPacket", "RREQ_SEQ_BASE"]

#: RREQ sequence numbers start here (see module docstring).
RREQ_SEQ_BASE = 1_000_000_000


@dataclass(frozen=True)
class RouteRequest(BroadcastPacket):
    """A flooded route request: "who can reach ``target_id``?"."""

    target_id: int = -1
    size_bytes: int = 64  # small control packet, not the 280 B data payload

    def __post_init__(self) -> None:
        if self.target_id == self.source_id:
            raise ValueError("route request targeting its own originator")

    def relayed_by(
        self, host_id: int, position: Optional[Tuple[float, float]]
    ) -> "RouteRequest":
        """The copy of this request as rebroadcast by ``host_id``."""
        return RouteRequest(
            self.source_id, self.seq, self.origin_time, host_id, position,
            self.hops + 1, self.size_bytes, self.target_id,
        )


@dataclass(frozen=True)
class RouteReply:
    """Unicast reply hopping back along the reverse route.

    ``origin_id`` is the RREQ's originator (where the reply is going);
    ``target_id`` is the discovered destination (where it came from);
    ``hop_count`` counts hops from the target, incremented per relay.
    """

    origin_id: int
    target_id: int
    request_seq: int
    hop_count: int
    size_bytes: int = 44

    def forwarded(self) -> "RouteReply":
        """The copy sent one hop closer to the originator."""
        return RouteReply(
            origin_id=self.origin_id,
            target_id=self.target_id,
            request_seq=self.request_seq,
            hop_count=self.hop_count + 1,
            size_bytes=self.size_bytes,
        )


@dataclass(frozen=True)
class DataPacket:
    """An application payload forwarded hop-by-hop along a route."""

    origin_id: int
    dest_id: int
    seq: int
    payload: Any = None
    size_bytes: int = 280
