"""MAC-layer frame envelopes.

The channel is payload-agnostic; the MAC wraps upper-layer packets in a
:class:`DataFrame` (broadcast when ``dst is None``) and acknowledges
unicast data with :class:`AckFrame`.  Broadcast frames are never
acknowledged (IEEE 802.11 forbids it -- the paper's Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["DataFrame", "AckFrame", "ACK_SIZE_BYTES"]

#: IEEE 802.11 ACK frame body size.
ACK_SIZE_BYTES = 14


class DataFrame:
    """A data frame on the air.  ``dst is None`` means broadcast.

    ``mac_seq`` models the 802.11 Sequence Control field: retransmissions
    of a unicast frame reuse the sequence number, letting the receiver ACK
    but not re-deliver duplicates caused by lost ACKs.

    A plain ``__slots__`` class, not a frozen dataclass: the MAC builds
    one per transmission, and a frozen dataclass's ``__init__`` costs
    more than twice as much.  Nothing may change a frame once it is on
    the air.
    """

    __slots__ = ("src", "dst", "payload", "size_bytes", "mac_seq")

    def __init__(
        self,
        src: int,
        dst: Optional[int],
        payload: Any,
        size_bytes: int,
        mac_seq: int = 0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        self.mac_seq = mac_seq


@dataclass(frozen=True)
class AckFrame:
    """Acknowledgement for a unicast data frame."""

    src: int  # the acknowledging host (the data frame's receiver)
    dst: int  # the data frame's sender
    size_bytes: int = ACK_SIZE_BYTES
