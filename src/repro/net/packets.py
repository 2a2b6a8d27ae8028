"""Packet types.

A broadcast packet is identified network-wide by ``(source_id, seq)`` (the
paper's duplicate-detection tuple).  Every relayed copy carries the position
of the host that transmitted *that copy* -- this models the GPS assumption of
the location-based schemes (each rebroadcaster stamps its own coordinates
into the header).  Hosts without the location schemes simply ignore the
field.

HELLO packets announce existence; for the neighbor-coverage scheme they
piggyback the sender's one-hop neighbor set, and for the dynamic-hello-
interval scheme the sender's currently announced interval (the paper notes
the interval "should be appended to its HELLO packets").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

__all__ = ["PacketKey", "BroadcastPacket", "HelloPacket"]

PacketKey = Tuple[int, int]

_HELLO_BASE_BYTES = 20
_BYTES_PER_NEIGHBOR_ID = 4


@dataclass(frozen=True)
class BroadcastPacket:
    """One on-air copy of a broadcast packet.

    ``source_id``/``seq`` identify the logical broadcast; ``tx_id`` /
    ``tx_position`` describe the host transmitting this particular copy.
    """

    source_id: int
    seq: int
    origin_time: float
    tx_id: int
    tx_position: Optional[Tuple[float, float]]
    hops: int = 0
    size_bytes: int = 280

    @property
    def key(self) -> PacketKey:
        """Network-wide identity used for duplicate detection."""
        return (self.source_id, self.seq)

    def relayed_by(
        self, host_id: int, position: Optional[Tuple[float, float]]
    ) -> "BroadcastPacket":
        """The copy of this packet as rebroadcast by ``host_id``.

        Built by the constructor, positionally: about half the cost of
        ``dataclasses.replace``, once per rebroadcast.  A subclass with
        fields of its own overrides this.
        """
        return BroadcastPacket(
            self.source_id, self.seq, self.origin_time, host_id, position,
            self.hops + 1, self.size_bytes,
        )


@dataclass(frozen=True)
class HelloPacket:
    """A periodic neighbor-announcement packet."""

    sender_id: int
    neighbor_ids: Optional[FrozenSet[int]] = None
    hello_interval: Optional[float] = None

    @property
    def size_bytes(self) -> int:
        """Wire size: base header plus 4 bytes per piggybacked neighbor id.

        The growing HELLO of the neighbor-coverage scheme therefore costs
        real airtime, as it would in a deployment.
        """
        extra = len(self.neighbor_ids) if self.neighbor_ids is not None else 0
        return _HELLO_BASE_BYTES + _BYTES_PER_NEIGHBOR_ID * extra
