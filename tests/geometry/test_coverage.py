"""Disk sampling and multi-circle coverage estimation."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.geometry.circles import additional_coverage_fraction
from repro.geometry.coverage import DiskSampler, uncovered_fraction


def reference_lattice(num_points):
    """The Fibonacci lattice, built point by point as a list of tuples."""
    golden_angle = math.pi * (3.0 - math.sqrt(5.0))
    points = []
    for i in range(num_points):
        radius = math.sqrt((i + 0.5) / num_points)
        theta = i * golden_angle
        points.append((radius * math.cos(theta), radius * math.sin(theta)))
    return points


def reference_uncovered_fraction(
    lattice, center, radius, covering_centers, covering_radius
):
    """One point and one covering center at a time: the loop that
    :meth:`DiskSampler.uncovered_fraction` must match bit for bit."""
    centers = list(covering_centers)
    if not centers:
        return 1.0
    cx, cy = center
    rr = covering_radius * covering_radius
    uncovered = 0
    for px, py in lattice:
        sx = cx + px * radius
        sy = cy + py * radius
        for qx, qy in centers:
            dx = sx - qx
            dy = sy - qy
            if dx * dx + dy * dy <= rr:
                break
        else:
            uncovered += 1
    return uncovered / len(lattice)


SIZES = (1, 2, 7, 256, 512)
#: One sampler per size, shared by every example, so its cached scaled
#: lattice is reused across radii the way a long run reuses it.
SAMPLERS = {n: DiskSampler(n) for n in SIZES}
LATTICES = {n: reference_lattice(n) for n in SIZES}

# Coordinates off the map and below zero, some of them integers.
coords = st.one_of(
    st.integers(-3000, 3000),
    st.floats(-3000.0, 3000.0, allow_nan=False, allow_infinity=False),
)
radii = st.floats(1e-3, 2000.0, allow_nan=False, allow_infinity=False)
CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda centers: (c for c in centers),
}


@st.composite
def coverage_queries(draw):
    """A host's disk and 0-12 covering centers, most of them near it."""
    cx, cy = draw(coords), draw(coords)
    radius = draw(radii)
    covering_radius = draw(st.one_of(st.just(radius), radii))
    near = st.builds(
        lambda u, v: (cx + u * radius, cy + v * radius),
        st.floats(-2.5, 2.5), st.floats(-2.5, 2.5),
    )
    centers = draw(st.lists(
        st.one_of(near, st.tuples(coords, coords)), max_size=12
    ))
    return (cx, cy), radius, centers, covering_radius


@given(
    n=st.sampled_from(SIZES),
    query=coverage_queries(),
    container=st.sampled_from(sorted(CONTAINERS)),
)
def test_uncovered_fraction_matches_reference_loop(n, query, container):
    center, radius, centers, covering_radius = query
    got = SAMPLERS[n].uncovered_fraction(
        center, radius, CONTAINERS[container](centers), covering_radius
    )
    want = reference_uncovered_fraction(
        LATTICES[n], center, radius, centers, covering_radius
    )
    assert got == want
    assert type(got) is float


@example(n=7, index=3, center=(0.0, 0.0), radius=500.0, reach=500.0, side=0)
@given(
    n=st.sampled_from(SIZES),
    index=st.integers(0, 511),
    center=st.tuples(coords, coords),
    radius=radii,
    reach=radii,
    side=st.sampled_from([-1, 0, 1]),
)
def test_point_on_the_covering_circle(n, index, center, radius, reach, side):
    """A lattice point exactly ``covering_radius`` from the one covering
    center is covered; one ulp short of it, it is not."""
    px, py = LATTICES[n][index % n]
    sx = center[0] + px * radius
    sy = center[1] + py * radius
    q = (sx - reach, sy)
    # The distance the loop computes for this point, exactly.
    covering_radius = sx - q[0]
    if side:
        covering_radius = math.nextafter(covering_radius, side * math.inf)
    d2 = (sx - q[0]) * (sx - q[0]) + (sy - q[1]) * (sy - q[1])
    rr = covering_radius * covering_radius
    # rr - d2 has the sign of ``side``: on the circle, or one ulp off it.
    assert (rr > d2) - (rr < d2) == side
    got = SAMPLERS[n].uncovered_fraction(center, radius, [q], covering_radius)
    want = reference_uncovered_fraction(
        LATTICES[n], center, radius, [q], covering_radius
    )
    assert got == want


@given(n=st.sampled_from(SIZES), center=st.tuples(coords, coords),
       radius=radii)
def test_points_match_reference_lattice(n, center, radius):
    cx, cy = center
    assert SAMPLERS[n].points(center, radius) == [
        (cx + px * radius, cy + py * radius) for px, py in LATTICES[n]
    ]


def test_sampler_points_inside_unit_disk():
    sampler = DiskSampler(500)
    for x, y in sampler.points((0.0, 0.0), 1.0):
        assert x * x + y * y <= 1.0 + 1e-12


def test_sampler_points_scaled_and_translated():
    sampler = DiskSampler(100)
    for x, y in sampler.points((10.0, -5.0), 3.0):
        assert (x - 10.0) ** 2 + (y + 5.0) ** 2 <= 9.0 + 1e-9


def test_no_cover_means_fraction_one():
    assert uncovered_fraction((0, 0), 1.0, [], 1.0) == 1.0


def test_full_cover_by_coincident_circle():
    assert uncovered_fraction((0, 0), 1.0, [(0, 0)], 1.0) == 0.0


def test_far_away_circle_covers_nothing():
    assert uncovered_fraction((0, 0), 1.0, [(5.0, 0.0)], 1.0) == 1.0


def test_single_cover_matches_closed_form():
    """Sampled uncovered fraction ~= 1 - INTC(d)/(pi r^2)."""
    sampler = DiskSampler(4096)
    for d in (0.25, 0.5, 1.0, 1.5):
        estimated = sampler.uncovered_fraction((0, 0), 1.0, [(d, 0.0)], 1.0)
        exact = additional_coverage_fraction(d)
        assert estimated == pytest.approx(exact, abs=0.02)


def test_more_covers_never_increase_uncovered():
    sampler = DiskSampler(512)
    centers = [(0.8, 0.0), (-0.5, 0.4), (0.1, -0.9)]
    previous = 1.0
    for k in range(1, len(centers) + 1):
        frac = sampler.uncovered_fraction((0, 0), 1.0, centers[:k], 1.0)
        assert frac <= previous + 1e-12
        previous = frac


def test_deterministic():
    a = DiskSampler(256).uncovered_fraction((0, 0), 1.0, [(0.7, 0.2)], 1.0)
    b = DiskSampler(256).uncovered_fraction((0, 0), 1.0, [(0.7, 0.2)], 1.0)
    assert a == b


def test_result_scale_invariant():
    small = uncovered_fraction((0, 0), 1.0, [(0.5, 0.0)], 1.0)
    large = uncovered_fraction((0, 0), 500.0, [(250.0, 0.0)], 500.0)
    assert small == pytest.approx(large, abs=1e-12)


def test_invalid_sampler_size():
    with pytest.raises(ValueError):
        DiskSampler(0)


def test_lattice_near_uniform():
    """Quadrant counts of the Fibonacci lattice stay within a few percent."""
    sampler = DiskSampler(4000)
    quadrants = [0, 0, 0, 0]
    for x, y in sampler.points((0.0, 0.0), 1.0):
        index = (0 if x >= 0 else 1) + (0 if y >= 0 else 2)
        quadrants[index] += 1
    for count in quadrants:
        assert count == pytest.approx(1000, rel=0.05)
