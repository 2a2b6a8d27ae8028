"""Routing message types."""

from dataclasses import replace

import pytest

from repro.net.packets import BroadcastPacket
from repro.routing.messages import DataPacket, RouteReply, RouteRequest


def make_rreq(**overrides):
    defaults = dict(
        source_id=1, seq=1_000_000_001, origin_time=0.0, tx_id=1,
        tx_position=None, hops=0, target_id=9,
    )
    defaults.update(overrides)
    return RouteRequest(**defaults)


def test_rreq_is_a_broadcast_packet():
    rreq = make_rreq()
    assert isinstance(rreq, BroadcastPacket)
    assert rreq.key == (1, 1_000_000_001)


def test_rreq_relaying_preserves_target():
    relayed = make_rreq().relayed_by(4, (10.0, 20.0))
    assert isinstance(relayed, RouteRequest)
    assert relayed.target_id == 9
    assert relayed.tx_id == 4
    assert relayed.hops == 1


def test_rreq_relayed_copy_equals_replace():
    rreq = make_rreq(hops=2)
    assert rreq.relayed_by(4, (10.0, 20.0)) == replace(
        rreq, tx_id=4, tx_position=(10.0, 20.0), hops=3
    )


def test_rreq_is_small_control_packet():
    assert make_rreq().size_bytes < 280


def test_rreq_self_target_rejected():
    with pytest.raises(ValueError):
        make_rreq(target_id=1)


def test_rrep_forwarding_increments_hops():
    reply = RouteReply(origin_id=1, target_id=9, request_seq=5, hop_count=0)
    fwd = reply.forwarded()
    assert fwd.hop_count == 1
    assert (fwd.origin_id, fwd.target_id, fwd.request_seq) == (1, 9, 5)


def test_data_packet_fields():
    packet = DataPacket(origin_id=1, dest_id=9, seq=3, payload="x")
    assert packet.size_bytes == 280
    assert packet.payload == "x"
