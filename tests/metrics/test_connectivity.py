"""Unit-disk connectivity snapshots."""

import random

import networkx as nx
import pytest

from repro.metrics.connectivity import connected_components, reachable_set


def test_line_fully_reachable():
    positions = {i: (i * 0.9, 0.0) for i in range(5)}
    assert reachable_set(positions, 0, radius=1.0) == {1, 2, 3, 4}


def test_broken_line_partitions():
    positions = {0: (0.0, 0.0), 1: (0.9, 0.0), 2: (3.0, 0.0), 3: (3.9, 0.0)}
    assert reachable_set(positions, 0, radius=1.0) == {1}
    assert reachable_set(positions, 2, radius=1.0) == {3}


def test_source_excluded_from_result():
    positions = {0: (0.0, 0.0), 1: (0.5, 0.0)}
    assert 0 not in reachable_set(positions, 0, radius=1.0)


def test_isolated_source():
    positions = {0: (0.0, 0.0), 1: (10.0, 0.0)}
    assert reachable_set(positions, 0, radius=1.0) == set()


def test_range_boundary_inclusive():
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    assert reachable_set(positions, 0, radius=1.0) == {1}


def test_multihop_through_grid_cells():
    """Hosts many radii apart still connect through relays, one BFS
    level per hop."""
    positions = {i: (i * 0.95, 0.0) for i in range(20)}
    assert reachable_set(positions, 0, radius=1.0) == set(range(1, 20))


def test_unknown_source_raises():
    with pytest.raises(KeyError):
        reachable_set({0: (0.0, 0.0)}, 99, radius=1.0)


def test_invalid_radius():
    with pytest.raises(ValueError):
        reachable_set({0: (0.0, 0.0)}, 0, radius=0.0)


def test_connected_components_sorted_by_size():
    positions = {
        0: (0.0, 0.0), 1: (0.5, 0.0), 2: (1.0, 0.0),  # triple
        3: (10.0, 0.0), 4: (10.5, 0.0),  # pair
        5: (20.0, 0.0),  # singleton
    }
    components = connected_components(positions, radius=1.0)
    assert [len(c) for c in components] == [3, 2, 1]
    assert components[0] == {0, 1, 2}
    assert components[2] == {5}


def test_matches_networkx_on_random_layouts():
    """Cross-check the level-by-level BFS against networkx."""
    rng = random.Random(42)
    for trial in range(10):
        positions = {
            i: (rng.uniform(0, 5), rng.uniform(0, 5)) for i in range(40)
        }
        graph = nx.random_geometric_graph(
            40, radius=1.0, pos={k: list(v) for k, v in positions.items()}
        )
        for source in (0, 17, 39):
            expected = set(nx.node_connected_component(graph, source)) - {source}
            assert reachable_set(positions, source, radius=1.0) == expected
