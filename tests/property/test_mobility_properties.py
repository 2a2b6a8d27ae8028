"""Property-based tests: mobility invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.points import distance
from repro.mobility.map import RectMap, _fold
from repro.mobility.models import (
    RandomDirectionMobility,
    RandomWaypointMobility,
    kmh_to_ms,
)


@settings(max_examples=25)
@given(
    seed=st.integers(0, 10_000),
    width=st.floats(100.0, 5000.0),
    height=st.floats(100.0, 5000.0),
    speed=st.floats(0.0, 200.0),
    times=st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=30),
)
def test_random_direction_never_leaves_map(seed, width, height, speed, times):
    world = RectMap(width, height)
    rng = random.Random(seed)
    model = RandomDirectionMobility(world, rng, speed)
    for t in sorted(times):
        assert world.contains(model.position(t))


@settings(max_examples=25)
@given(seed=st.integers(0, 10_000), speed=st.floats(1.0, 150.0))
def test_random_direction_speed_bound(seed, speed):
    world = RectMap(10_000.0, 10_000.0)
    model = RandomDirectionMobility(
        world, random.Random(seed), speed, start=(5000.0, 5000.0)
    )
    max_ms = kmh_to_ms(speed)
    dt = 0.5
    prev = model.position(0.0)
    for i in range(1, 200):
        current = model.position(i * dt)
        assert distance(prev, current) <= max_ms * dt + 1e-6
        prev = current


@settings(max_examples=20)
@given(
    seed=st.integers(0, 10_000),
    pause=st.floats(0.0, 60.0),
    times=st.lists(st.floats(0.0, 3000.0), min_size=1, max_size=20),
)
def test_random_waypoint_never_leaves_map(seed, pause, times):
    world = RectMap(800.0, 1200.0)
    model = RandomWaypointMobility(
        world, random.Random(seed), 60.0, pause_time=pause
    )
    for t in sorted(times):
        assert world.contains(model.position(t))


@settings(max_examples=30)
@given(
    x=st.floats(-1e6, 1e6),
    y=st.floats(-1e6, 1e6),
    width=st.floats(1.0, 1e4),
    height=st.floats(1.0, 1e4),
)
def test_reflect_always_lands_inside(x, y, width, height):
    world = RectMap(width, height)
    assert world.contains(world.reflect((x, y)))


# ------------------------------------------- fast path vs slow path
#
# ``reflect`` skips the fold for in-map points.  The shortcut must agree
# with the unconditional slow path -- within 1e-12, though in practice it
# is bit-identical (the batched PositionStore leans on exactly this
# equivalence).


@settings(max_examples=50)
@given(
    x=st.floats(0.0, 1e4),
    y=st.floats(0.0, 1e4),
    width=st.floats(1.0, 1e4),
    height=st.floats(1.0, 1e4),
)
def test_reflect_fast_path_matches_unconditional_fold(x, y, width, height):
    world = RectMap(width, height)
    rx, ry = world.reflect((x, y))
    fx, fy = _fold(x, width), _fold(y, height)
    assert abs(rx - fx) <= 1e-12
    assert abs(ry - fy) <= 1e-12
    if world.contains((x, y)):
        # In-map points take the identity shortcut; the fold must agree
        # exactly, or the shortcut would not be bit-safe to skip.
        assert (rx, ry) == (fx, fy) == (x, y)
