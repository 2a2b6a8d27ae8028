"""Adaptive location scheme: A(n) thresholding of the coverage assessment."""

import pytest

from repro.schemes import AdaptiveLocationScheme

from tests.schemes.harness import FakeHost, make_packet


def test_needs_hello_and_position():
    assert AdaptiveLocationScheme.needs_hello is True
    assert AdaptiveLocationScheme.needs_position is True


def test_sparse_host_forced_to_rebroadcast():
    """n <= n1 -> A(n) = 0: even a fully covered host rebroadcasts."""
    host = FakeHost(AdaptiveLocationScheme(), neighbors=3, position=(0.0, 0.0))
    packet = make_packet(tx_position=(0.0, 0.0))  # ac = 0
    host.hear_first(packet)
    host.run_jitter()
    assert len(host.submitted) == 1
    assert host.inhibited == []


def test_crowded_host_inhibited_by_plateau():
    """n >= n2 -> A = 0.187; a close sender leaves ac < 0.187."""
    host = FakeHost(
        AdaptiveLocationScheme(), neighbors=20, position=(0.0, 0.0), radius=500.0
    )
    packet = make_packet(tx_position=(100.0, 0.0))  # ac ~ 0.15
    host.hear_first(packet)
    assert host.inhibited == [packet.key]


def test_crowded_host_with_high_ac_still_rebroadcasts():
    host = FakeHost(
        AdaptiveLocationScheme(), neighbors=20, position=(0.0, 0.0), radius=500.0
    )
    packet = make_packet(tx_position=(500.0, 0.0))  # ac ~ 0.61 > 0.187
    host.hear_first(packet)
    host.run_jitter()
    assert len(host.submitted) == 1


def test_threshold_scales_between_n1_and_n2():
    scheme = AdaptiveLocationScheme(n1=6, n2=12)
    host = FakeHost(scheme, neighbors=9, position=(0.0, 0.0), radius=500.0)
    assert scheme.current_threshold() == pytest.approx(0.187 / 2, abs=1e-9)


def test_coverage_updates_inhibit_midwait():
    host = FakeHost(
        AdaptiveLocationScheme(), neighbors=20, position=(0.0, 0.0),
        radius=500.0, jitter=31,
    )
    packet = make_packet(tx_position=(500.0, 0.0))
    host.hear_first(packet)
    assert host.scheme.pending_count() == 1
    # Three more rim senders blanket the disk.
    host.hear_again(packet, sender_position=(-450.0, 0.0))
    host.hear_again(packet, sender_position=(0.0, 450.0))
    host.hear_again(packet, sender_position=(0.0, -450.0))
    assert host.inhibited == [packet.key]


def test_describe():
    assert "AL[" in AdaptiveLocationScheme().describe()
