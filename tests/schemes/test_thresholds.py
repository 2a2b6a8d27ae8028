"""Threshold function library: C(n) and A(n)."""

import pytest

from repro.schemes.thresholds import (
    EAC2_FRACTION,
    FIG5A_SEQUENCES,
    FIG5B_SEQUENCES,
    counter_sequence,
    make_counter_threshold,
    make_location_threshold,
    midcurve_values,
)


class TestCounterSequence:
    def test_paper_notation_indexing(self):
        fn = counter_sequence([2, 3, 4, 5])
        assert fn(1) == 2
        assert fn(2) == 3
        assert fn(4) == 5

    def test_extends_with_last_value(self):
        fn = counter_sequence([2, 3])
        assert fn(50) == 3

    def test_n_zero_uses_first_value(self):
        fn = counter_sequence([4, 3, 2])
        assert fn(0) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            counter_sequence([])
        with pytest.raises(ValueError):
            counter_sequence([2, 1])
        fn = counter_sequence([2])
        with pytest.raises(ValueError):
            fn(-1)

    def test_label(self):
        assert counter_sequence([2, 3, 4]).label == "234"
        assert counter_sequence([2], name="custom").label == "custom"


class TestTunedCounterThreshold:
    def test_rising_part_is_n_plus_1(self):
        fn = make_counter_threshold(n1=4, n2=12)
        for n in range(1, 5):
            assert fn(n) == n + 1

    def test_floor_is_2_from_n2(self):
        fn = make_counter_threshold(n1=4, n2=12)
        for n in range(12, 30):
            assert fn(n) == 2

    def test_midcurve_monotone_nonincreasing(self):
        for shape in ("linear", "convex", "concave"):
            fn = make_counter_threshold(n1=4, n2=12, shape=shape)
            values = [fn(n) for n in range(4, 13)]
            assert all(a >= b for a, b in zip(values, values[1:])), (shape, values)

    def test_shapes_ordered_convex_below_concave(self):
        convex = make_counter_threshold(shape="convex")
        concave = make_counter_threshold(shape="concave")
        mids = range(5, 12)
        assert all(convex(n) <= concave(n) for n in mids)
        assert any(convex(n) < concave(n) for n in mids)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_counter_threshold(n1=5, n2=5)
        with pytest.raises(ValueError):
            make_counter_threshold(n1=0, n2=4)
        with pytest.raises(ValueError):
            midcurve_values(4, 12, "wiggly")


class TestFig5Sequences:
    def test_slope_sequences_match_paper_notation(self):
        # Paper notation 22233344455..., 2233445..., 23455...
        assert FIG5A_SEQUENCES["slope-1/3"] == [2, 2, 2, 3, 3, 3, 4, 4, 4, 5]
        assert FIG5A_SEQUENCES["slope-1/2"] == [2, 2, 3, 3, 4, 4, 5]
        assert FIG5A_SEQUENCES["slope-1"] == [2, 3, 4, 5]

    def test_n1_sequences(self):
        assert FIG5B_SEQUENCES[2] == [2, 3]
        assert FIG5B_SEQUENCES[4] == [2, 3, 4, 5]
        assert FIG5B_SEQUENCES[5] == [2, 3, 4, 5, 6]


class TestLocationThreshold:
    def test_zero_below_n1(self):
        fn = make_location_threshold(n1=6, n2=12)
        for n in range(0, 7):
            assert fn(n) == 0.0

    def test_plateau_at_eac2_from_n2(self):
        fn = make_location_threshold(n1=6, n2=12)
        for n in range(12, 40):
            assert fn(n) == EAC2_FRACTION

    def test_linear_between(self):
        fn = make_location_threshold(n1=6, n2=12)
        assert fn(9) == pytest.approx(EAC2_FRACTION / 2)
        values = [fn(n) for n in range(6, 13)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_custom_plateau(self):
        fn = make_location_threshold(n1=2, n2=4, a_max=0.5)
        assert fn(3) == pytest.approx(0.25)
        assert fn(10) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            make_location_threshold(n1=5, n2=5)
        with pytest.raises(ValueError):
            make_location_threshold(a_max=0.0)
        fn = make_location_threshold()
        with pytest.raises(ValueError):
            fn(-1)

    def test_label_metadata(self):
        fn = make_location_threshold(n1=6, n2=12)
        assert fn.label == "AL(n1=6,n2=12)"


def test_counter_sequence_label_delimits_multidigit_thresholds():
    # [2, 10] must not render as "210" (ambiguous with [2, 1, 0]).
    assert counter_sequence([2, 10]).label == "2-10"
    assert counter_sequence([2, 10, 12]).label == "2-10-12"
    # Single-digit paper sequences keep the compact notation.
    assert counter_sequence([2, 3, 4]).label == "234"
