"""Packet types and relaying."""

from dataclasses import replace

from repro.net.packets import BroadcastPacket, HelloPacket


def make_packet(**overrides):
    defaults = dict(
        source_id=1, seq=7, origin_time=2.5, tx_id=1,
        tx_position=(100.0, 200.0), hops=0, size_bytes=280,
    )
    defaults.update(overrides)
    return BroadcastPacket(**defaults)


def test_key_is_source_and_seq():
    assert make_packet().key == (1, 7)


def test_relayed_copy_keeps_identity():
    packet = make_packet()
    relayed = packet.relayed_by(9, (300.0, 400.0))
    assert relayed.key == packet.key
    assert relayed.source_id == 1
    assert relayed.seq == 7
    assert relayed.origin_time == 2.5
    assert relayed.size_bytes == 280


def test_relayed_copy_updates_transmitter():
    relayed = make_packet().relayed_by(9, (300.0, 400.0))
    assert relayed.tx_id == 9
    assert relayed.tx_position == (300.0, 400.0)
    assert relayed.hops == 1


def test_relayed_copy_equals_replace():
    """The positional constructor call sets every field as
    ``dataclasses.replace`` would."""
    packet = make_packet(hops=3, size_bytes=512)
    relayed = packet.relayed_by(9, (300.0, 400.0))
    assert type(relayed) is BroadcastPacket
    assert relayed == replace(
        packet, tx_id=9, tx_position=(300.0, 400.0), hops=4
    )


def test_relaying_twice_increments_hops():
    relayed = make_packet().relayed_by(9, None).relayed_by(4, None)
    assert relayed.hops == 2
    assert relayed.tx_position is None


def test_original_packet_unchanged_by_relay():
    packet = make_packet()
    packet.relayed_by(9, (0.0, 0.0))
    assert packet.tx_id == 1
    assert packet.hops == 0


def test_hello_base_size():
    assert HelloPacket(sender_id=1).size_bytes == 20


def test_hello_size_grows_with_neighbor_list():
    hello = HelloPacket(sender_id=1, neighbor_ids=frozenset({2, 3, 4}))
    assert hello.size_bytes == 20 + 3 * 4


def test_hello_empty_neighbor_list_costs_nothing_extra():
    hello = HelloPacket(sender_id=1, neighbor_ids=frozenset())
    assert hello.size_bytes == 20


def test_hello_carries_announced_interval():
    hello = HelloPacket(sender_id=1, hello_interval=2.5)
    assert hello.hello_interval == 2.5
    assert HelloPacket(sender_id=1).hello_interval is None


def test_packets_hashable_and_frozen():
    packet = make_packet()
    assert hash(packet) == hash(make_packet())
    hello = HelloPacket(sender_id=1)
    assert hash(hello) == hash(HelloPacket(sender_id=1))
