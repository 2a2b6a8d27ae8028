"""Adaptive counter scheme: C(n) reacts to the live neighbor count."""

import pytest

from repro.schemes import AdaptiveCounterScheme, make_scheme
from repro.schemes.thresholds import (
    FIG5A_SEQUENCES,
    FIG5B_SEQUENCES,
    counter_sequence,
)

from tests.schemes.harness import FakeHost, make_packet


def test_needs_hello():
    assert AdaptiveCounterScheme.needs_hello is True


def test_default_threshold_function_is_tuned_curve():
    scheme = AdaptiveCounterScheme()
    assert scheme.threshold_fn(1) == 2
    assert scheme.threshold_fn(4) == 5
    assert scheme.threshold_fn(12) == 2


def test_describe_includes_label():
    assert "AC[" in AdaptiveCounterScheme().describe()


def test_sparse_host_tolerates_many_copies():
    """n = 2 -> C = 3: two copies do not inhibit."""
    host = FakeHost(AdaptiveCounterScheme(), neighbors=2, jitter=31)
    packet = make_packet()
    host.hear_first(packet)
    host.hear_again(packet)  # c = 2 < C(2) = 3
    assert host.scheme.pending_count() == 1
    host.hear_again(packet)  # c = 3 -> inhibit
    assert host.inhibited == [packet.key]


def test_crowded_host_uses_floor_threshold():
    """n >= 12 -> C = 2: the second copy inhibits."""
    host = FakeHost(AdaptiveCounterScheme(), neighbors=15, jitter=31)
    packet = make_packet()
    host.hear_first(packet)
    host.hear_again(packet)
    assert host.inhibited == [packet.key]


def test_threshold_reevaluated_as_neighborhood_changes():
    """A host whose neighborhood grows mid-wait adapts on the fly."""
    host = FakeHost(AdaptiveCounterScheme(), neighbors=3, jitter=31)
    packet = make_packet()
    host.hear_first(packet)
    host.hear_again(packet)  # c = 2 < C(3) = 4: keep waiting
    assert host.scheme.pending_count() == 1
    host._neighbor_count = 20  # neighborhood suddenly crowded
    host.hear_again(packet)  # c = 3 >= C(20) = 2 -> inhibit
    assert host.inhibited == [packet.key]


def test_custom_threshold_function():
    scheme = AdaptiveCounterScheme(sequence="2-2-2-2")
    host = FakeHost(scheme, neighbors=1, jitter=31)
    packet = make_packet()
    host.hear_first(packet)
    host.hear_again(packet)
    assert host.inhibited == [packet.key]


def test_isolated_host_always_rebroadcasts_first_copy():
    """n = 0 maps to the sequence head (forced-rebroadcast side)."""
    host = FakeHost(AdaptiveCounterScheme(), neighbors=0)
    packet = make_packet()
    host.hear_first(packet)
    host.run_jitter()
    assert len(host.submitted) == 1


@pytest.mark.parametrize(
    "seq", list(FIG5A_SEQUENCES.values()) + list(FIG5B_SEQUENCES.values())
)
def test_sequence_param_builds_the_fig5_curves(seq):
    scheme = make_scheme("adaptive-counter", sequence="-".join(map(str, seq)))
    expected = counter_sequence(seq)
    assert [scheme.threshold_fn(n) for n in range(100)] == [
        expected(n) for n in range(100)
    ]


@pytest.mark.parametrize("text", ["2-x", "1-2", "", "2--3", "2.5"])
def test_malformed_sequence_names_the_parameter(text):
    with pytest.raises(ValueError, match="sequence"):
        AdaptiveCounterScheme(sequence=text)
