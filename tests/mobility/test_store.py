"""PositionStore: batched positions must replay the per-host models exactly."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.map import RectMap
from repro.mobility.models import (
    MobilityModel,
    RandomDirectionMobility,
    RandomWaypointMobility,
    StaticMobility,
    _SegmentedMobility,
)
from repro.mobility.store import PositionStore


def make_models(world, n, seed=1, speed_kmh=60.0):
    """A mixed fleet: both segmented models plus a couple of static rows."""
    models = []
    for i in range(n):
        rng = random.Random(seed * 1000 + i)
        if i % 5 == 4:
            models.append(StaticMobility(world.random_point(rng)))
        elif i % 2:
            models.append(RandomWaypointMobility(world, rng, speed_kmh))
        else:
            models.append(RandomDirectionMobility(world, rng, speed_kmh))
    return models


def twin_fleets(world, n, seed=1, speed_kmh=60.0):
    """Two identically-seeded fleets (same RNG streams, separate state)."""
    return (
        make_models(world, n, seed, speed_kmh),
        make_models(world, n, seed, speed_kmh),
    )


def query_times(seed=9, count=60, horizon=120.0):
    rng = random.Random(seed)
    times = sorted(rng.uniform(0.0, horizon) for _ in range(count))
    # Repeats exercise the epoch cache.
    return [t for t in times for _ in (0, 1)]


def test_batched_arrays_bit_identical_to_scalar_models():
    world = RectMap(800.0, 600.0)
    store_fleet, scalar_fleet = twin_fleets(world, 20)
    store = PositionStore(store_fleet, world)
    for t in query_times():
        xs, ys = store.arrays_at(t)
        for i, model in enumerate(scalar_fleet):
            x, y = model.position(t)
            assert float(xs[i]) == x, (i, t)
            assert float(ys[i]) == y, (i, t)


def test_position_of_bit_identical_to_scalar_models():
    world = RectMap(1000.0, 1000.0)
    store_fleet, scalar_fleet = twin_fleets(world, 12, seed=3)
    store = PositionStore(store_fleet, world)
    rng = random.Random(17)
    t = 0.0
    for _ in range(200):
        t += rng.uniform(0.0, 2.0)
        host_id = rng.randrange(12)
        assert store.position_of(host_id, t) == scalar_fleet[host_id].position(t)


def test_position_of_at_new_instant_costs_one_epoch():
    world = RectMap(500.0, 500.0)
    store = PositionStore(make_models(world, 8), world)
    # The first single-host read at an instant evaluates every host once;
    # every later read at that instant is a cache hit.
    store.position_of(0, 1.0)
    assert (store.batch_evals, store.epoch_hits) == (1, 0)
    store.position_of(1, 1.0)
    store.arrays_at(1.0)
    store.position_of(0, 1.0)
    assert (store.batch_evals, store.epoch_hits) == (1, 3)
    store.position_of(2, 2.0)
    assert (store.batch_evals, store.epoch_hits) == (2, 3)


def test_arrays_at_rejects_time_going_backwards():
    world = RectMap(500.0, 500.0)
    store = PositionStore(make_models(world, 4), world)
    store.arrays_at(5.0)
    with pytest.raises(ValueError, match="non-monotonic"):
        store.arrays_at(4.0)


def test_lazy_reads_interleave_with_batches():
    """A single-host read far ahead of the last epoch rolls every segment
    it passes, and later epochs still replay the models exactly."""
    world = RectMap(700.0, 700.0)
    store_fleet, scalar_fleet = twin_fleets(world, 10, seed=5)
    store = PositionStore(store_fleet, world)
    store.arrays_at(1.0)
    # Straggler far ahead: rolls host 3's segments via the model.
    assert store.position_of(3, 40.0) == scalar_fleet[3].position(40.0)
    xs, ys = store.arrays_at(50.0)
    for i, model in enumerate(scalar_fleet):
        assert (float(xs[i]), float(ys[i])) == model.position(50.0)


def test_static_rows_never_roll():
    world = RectMap(500.0, 500.0)
    static = [StaticMobility((10.0, 20.0)), StaticMobility((499.0, 1.0))]
    store = PositionStore(static, world)
    for t in (0.0, 100.0, 1e6):
        xs, ys = store.arrays_at(t)
        assert (float(xs[0]), float(ys[0])) == (10.0, 20.0)
        assert (float(xs[1]), float(ys[1])) == (499.0, 1.0)
    assert store.segment_rolls == 0


def test_custom_models_are_reevaluated_each_epoch():
    """A model that is not built in is a row holding ``model.position(t)``
    at every epoch: never rolled, never folded back onto the map."""

    class Drift(MobilityModel):
        def __init__(self):
            self.queries = []

        def position(self, time):
            self.queries.append(time)
            return (-5.0 + 3.0 * time, 700.0)  # starts off the map

    world = RectMap(500.0, 500.0)
    fleet = make_models(world, 3)
    drift = Drift()
    store = PositionStore(fleet + [drift], world)
    for t in (0.0, 0.5, 2.0):
        xs, ys = store.arrays_at(t)
        assert (float(xs[3]), float(ys[3])) == (-5.0 + 3.0 * t, 700.0)
    assert drift.queries == [0.0, 0.5, 2.0]
    # A single-host read at a fresh instant evaluates the row too.
    assert store.position_of(3, 3.0) == (4.0, 700.0)
    assert drift.queries == [0.0, 0.5, 2.0, 3.0]


def test_arrays_are_float64_views():
    world = RectMap(500.0, 500.0)
    store = PositionStore(make_models(world, 5), world)
    xs, ys = store.arrays_at(0.5)
    assert xs.dtype == np.float64 and ys.dtype == np.float64
    assert xs.shape == ys.shape == (5,)


# ------------------------------------------------ the fold, bit for bit


def bits(value):
    """A float's IEEE-754 bit pattern, which tells -0.0 from 0.0."""
    return int(np.float64(value).view(np.uint64))


def assert_bits_match_models(store, models, time):
    xs, ys = store.arrays_at(time)
    for i, model in enumerate(models):
        x, y = model.position(time)
        assert (bits(xs[i]), bits(ys[i])) == (bits(x), bits(y)), (
            i, time, (float(xs[i]), float(ys[i])), (x, y)
        )


def off_map_points(world):
    """Fixed points below the map, above it within one fold period and
    above it beyond one: a fold of a fixed row would move each of them."""
    w, h = world.width, world.height
    return [(-w / 3.0, 1.5 * h), (1.5 * w, -2.5 * h), (2.5 * w, h + 1.0)]


@settings(max_examples=60, deadline=None)
@given(
    width=st.floats(1.0, 2000.0),
    height=st.floats(1.0, 2000.0),
    max_speed_kmh=st.floats(1.0, 3000.0),
    pause_time=st.floats(0.0, 30.0),
    seed=st.integers(0, 2 ** 32 - 1),
    static=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
)
def test_fold_bit_identical_to_models(
    width, height, max_speed_kmh, pause_time, seed, static
):
    """Fast hosts cross a small map many times per segment; random
    waypoint pauses; fixed rows off the map stay where they are."""
    world = RectMap(width, height)

    def fleet():
        models = []
        for i in range(6):
            rng = random.Random(seed + i)
            if i % 2:
                models.append(RandomWaypointMobility(
                    world, rng, max_speed_kmh, pause_time=pause_time
                ))
            else:
                models.append(RandomDirectionMobility(world, rng, max_speed_kmh))
        points = off_map_points(world) + [static]
        return models + [StaticMobility(point) for point in points]

    store_fleet, reference = fleet(), fleet()
    store = PositionStore(store_fleet, world)
    rng = random.Random(seed)
    t = 0.0
    for step in range(80):
        if step % 2:
            # The next segment end: the raw position there is the one
            # each coordinate's flag was taken from.
            t = min(m._seg_end_time for m in reference[:6])
        else:
            t += rng.expovariate(0.5)
        assert_bits_match_models(store, reference, t)


class ScriptedMobility(_SegmentedMobility):
    """One-second segments, each aimed at a given raw end point."""

    __slots__ = ("_ends",)

    def __init__(self, world, start, ends):
        super().__init__(world, start)
        self._ends = list(ends)

    def _next_segment(self, rng_time):
        ex, ey = self._ends.pop(0)
        ox, oy = self._seg_origin
        return (1.0, ex - ox, ey - oy)


def border_ends(size):
    """Exactly on either border, or one ulp beyond it."""
    return [0.0, -5e-324, size, math.nextafter(size, math.inf)]


def border_start(size):
    """A start from which every border end is hit exactly, or 0.0 is:
    0.0 itself (also written -0.0), or a point in ``[size/2, size]``,
    where the subtraction toward ``size`` is exact (Sterbenz)."""
    return st.one_of(
        st.sampled_from([0.0, -0.0, size]),
        st.floats(size / 2.0, size),
    )


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    width=st.floats(0.5, 5000.0),
    height=st.floats(0.5, 5000.0),
    segments=st.integers(1, 6),
)
def test_fold_bit_identical_on_the_border(data, width, height, segments):
    """Segments whose raw end lands exactly on a border, or one ulp
    beyond it, read at their start, middle and end."""
    world = RectMap(width, height)
    starts = [
        (data.draw(border_start(width)), data.draw(border_start(height)))
        for _ in range(4)
    ]
    ends = st.tuples(
        st.sampled_from(border_ends(width)), st.sampled_from(border_ends(height))
    )
    scripts = [
        data.draw(st.lists(ends, min_size=segments, max_size=segments))
        for _ in starts
    ]

    def fleet():
        return [
            ScriptedMobility(world, start, script)
            for start, script in zip(starts, scripts)
        ]

    store_fleet, reference = fleet(), fleet()
    store = PositionStore(store_fleet, world)
    for step in range(2 * segments + 1):
        t = step / 2.0
        assert_bits_match_models(store, reference, t)
        for model in reference:
            # The segment in play really ends on a border or one ulp
            # beyond, in the store's arithmetic.
            dt = model._seg_end_time - model._seg_start_time
            ox, oy = model._seg_origin
            vx, vy = model._velocity
            assert dt * vx + ox in border_ends(width)
            assert dt * vy + oy in border_ends(height)


@pytest.mark.parametrize("size", [0.5, 1.0, 500.0, 4500.0, 5500.0, 1e-300])
def test_numpy_remainder_is_python_modulo(size):
    """The batched fold's ``np.remainder`` must be Python's ``%`` bit for
    bit, on the cases where a remainder routine may round or sign
    differently."""
    period = 2.0 * size
    values = [0.0, -0.0, 5e-324, -5e-324, -1e-300, -1e-17, -size * 1e-16]
    values += [k * period for k in range(-3, 4)]
    for edge in (0.0, size, period, -size, -period):
        values += [math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    got = np.remainder(np.array(values), np.full(len(values), period))
    want = [value % period for value in values]
    assert [bits(v) for v in got] == [bits(v) for v in want]
