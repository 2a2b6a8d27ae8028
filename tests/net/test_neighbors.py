"""Neighbor tables, two-hop knowledge, variation and the DHI formula."""

import numpy as np
import pytest

from repro.net.neighbors import NeighborStore, dynamic_hello_interval
from repro.net.packets import HelloPacket


def make_table(default_interval=1.0, **kwargs):
    """Host 0's table in a store of 100 hosts."""
    return NeighborStore(100, default_interval, **kwargs).tables[0]


def hello(sender, neighbors=None, interval=None):
    return HelloPacket(
        sender_id=sender,
        neighbor_ids=frozenset(neighbors) if neighbors is not None else None,
        hello_interval=interval,
    )


class TestNeighborTable:
    def test_hello_enlists_neighbor(self):
        table = make_table()
        table.update_from_hello(hello(5), now=10.0)
        assert table.neighbor_ids() == {5}
        assert table.knows(5)
        assert table.neighbor_count() == 1

    def test_two_interval_timeout(self):
        """'If no HELLO has been received ... for the past two hello
        intervals, host x deletes h'."""
        table = make_table()
        table.update_from_hello(hello(5), now=10.0)
        assert table.neighbor_ids(now=11.9) == {5}
        assert table.neighbor_ids(now=12.1) == set()

    def test_refresh_extends_lifetime(self):
        table = make_table()
        table.update_from_hello(hello(5), now=10.0)
        table.update_from_hello(hello(5), now=11.5)
        assert table.neighbor_ids(now=13.0) == {5}

    def test_announced_interval_governs_timeout(self):
        """DHI: the timeout uses the *sender's* announced interval."""
        table = make_table()
        table.update_from_hello(hello(5, interval=10.0), now=0.0)
        assert table.neighbor_ids(now=15.0) == {5}  # 15 < 2 * 10
        assert table.neighbor_ids(now=21.0) == set()

    def test_shorter_announced_interval_expires_earlier(self):
        """A refresh can bring the timeout forward; purge must honour it."""
        table = make_table()
        table.update_from_hello(hello(5, interval=10.0), now=0.0)
        table.update_from_hello(hello(5, interval=1.0), now=1.0)
        assert table.neighbor_ids(now=3.0) == {5}  # 3 = 1 + 2 * 1
        assert table.neighbor_ids(now=3.5) == set()
        assert table.expirations == 1

    def test_two_hop_sets_stored(self):
        table = make_table()
        table.update_from_hello(hello(5, neighbors={7, 8}), now=0.0)
        assert table.two_hop_neighbors(5) == frozenset({7, 8})
        assert table.two_hop_neighbors(99) == frozenset()

    def test_two_hop_set_updates(self):
        table = make_table()
        table.update_from_hello(hello(5, neighbors={7}), now=0.0)
        table.update_from_hello(hello(5, neighbors={8, 9}), now=0.5)
        assert table.two_hop_neighbors(5) == frozenset({8, 9})

    def test_hello_without_neighbors_preserves_known_set(self):
        table = make_table()
        table.update_from_hello(hello(5, neighbors={7}), now=0.0)
        table.update_from_hello(hello(5), now=0.5)
        assert table.two_hop_neighbors(5) == frozenset({7})

    def test_purge_returns_dropped(self):
        table = make_table()
        table.update_from_hello(hello(5), now=0.0)
        table.update_from_hello(hello(6), now=2.0)
        dropped = table.purge(now=3.0)
        assert dropped == {5}
        assert table.neighbor_ids() == {6}

    def test_variation_counts_joins_and_leaves(self):
        table = make_table(variation_window=10.0)
        table.update_from_hello(hello(5), now=100.0)  # join
        table.update_from_hello(hello(6), now=100.5)  # join
        table.update_from_hello(hello(6), now=102.0)  # refresh, not a change
        # At 103, host 5 not refreshed -> leaves (3 events in window).
        nv = table.variation(now=103.0)
        # one neighbor (6) remains: nv = 3 / (1 * 10)
        assert nv == pytest.approx(0.3)

    def test_variation_zero_for_stable_neighborhood(self):
        table = make_table(variation_window=10.0)
        table.update_from_hello(hello(5), now=0.0)
        for t in range(1, 30):
            table.update_from_hello(hello(5), now=float(t))
        # The join at t=0 has left the 10 s window by t=29.
        assert table.variation(now=29.0) == 0.0

    def test_variation_defined_for_isolated_host(self):
        table = make_table()
        assert table.variation(now=50.0) == 0.0

    def test_old_changes_pruned_from_window(self):
        table = make_table(variation_window=10.0)
        table.update_from_hello(hello(5), now=0.0)
        table.update_from_hello(hello(5), now=5.0)
        table.update_from_hello(hello(5), now=11.0)
        assert table.variation(now=11.0) == 0.0  # join at t=0 outside window

    def test_log_trimmed_as_it_appends(self):
        """Without a variation() call (fixed-interval HELLO makes none),
        joins and leaves older than the window still leave the log."""
        table = make_table(variation_window=10.0)
        table.update_from_hello(hello(5), now=0.0)
        table.purge(now=2.5)  # 5 leaves
        table.update_from_hello(hello(6), now=12.0)
        assert [t for t, _ in table._changes] == [2.5, 12.0]
        table.update_from_hello(hello(7), now=13.0)
        assert [t for t, _ in table._changes] == [12.0, 13.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborStore(1, default_interval=0.0)
        with pytest.raises(ValueError):
            NeighborStore(1, default_interval=1.0, timeout_multiplier=0.0)

    def test_reset_forgets_everything(self):
        """A crash wipes the table, its history and its counters; other
        tables keep their entries."""
        store = NeighborStore(10, default_interval=1.0)
        table, other = store.tables[0], store.tables[1]
        store.absorb(hello(5, neighbors={7}), np.array([0, 1]), now=0.0)
        table.purge(now=5.0)
        store.absorb(hello(6, neighbors={8}), np.array([1, 0]), now=5.0)
        table.reset()
        assert table.neighbor_ids() == set()
        assert table.two_hop_neighbors(6) == frozenset()
        assert table.variation(now=5.0) == 0.0
        assert (table.hello_updates, table.expirations) == (0, 0)
        assert other.neighbor_ids() == {5, 6}
        assert other.two_hop_neighbors(6) == frozenset({8})
        # The next HELLO from 6 is a join again.
        store.absorb(hello(6), np.array([0]), now=5.5)
        assert table.neighbor_ids() == {6}
        assert table.two_hop_neighbors(6) == frozenset()
        assert table.variation(now=5.5) == pytest.approx(0.1)
        assert table.hello_updates == 1

    def test_bulk_absorb_reaches_every_receiver(self):
        store = NeighborStore(10, default_interval=1.0)
        store.absorb(hello(5, neighbors={7}, interval=2.0), np.array([3, 0, 8]), now=1.0)
        for host_id in (0, 3, 8):
            table = store.tables[host_id]
            assert table.neighbor_ids(now=5.0) == {5}
            assert table.two_hop_neighbors(5) == frozenset({7})
            assert table.hello_updates == 1
        assert store.tables[1].neighbor_ids(now=1.0) == set()
        assert store.tables[3].neighbor_ids(now=5.1) == set()

    def test_expired_entry_refreshed_before_purge_is_not_a_join(self):
        """Purge is lazy: an entry past its expiry stays until a query
        purges it, and a HELLO that refreshes it first is no change."""
        table = make_table()
        table.update_from_hello(hello(5), now=0.0)
        table.update_from_hello(hello(5), now=3.0)  # expired at 2.0
        assert table.expirations == 0
        assert table.variation(now=3.0) == pytest.approx(0.1)  # one join


class TestDynamicHelloInterval:
    def test_zero_variation_gives_max_interval(self):
        assert dynamic_hello_interval(0.0) == 10.0

    def test_max_variation_gives_min_interval(self):
        assert dynamic_hello_interval(0.02) == 1.0

    def test_above_max_variation_clamped(self):
        assert dynamic_hello_interval(0.5) == 1.0

    def test_linear_in_between(self):
        # nv = nv_max / 2 -> hi = hi_max / 2 = 5 (above hi_min).
        assert dynamic_hello_interval(0.01) == pytest.approx(5.0)

    def test_paper_formula_shape(self):
        """hi = max(hi_min, (nv_max - nv)/nv_max * hi_max)."""
        for nv in (0.0, 0.005, 0.01, 0.015, 0.02):
            expected = max(1.0, (0.02 - nv) / 0.02 * 10.0)
            assert dynamic_hello_interval(nv) == pytest.approx(expected)

    def test_custom_bounds(self):
        assert dynamic_hello_interval(0.0, hi_min=2.0, hi_max=20.0) == 20.0
        assert dynamic_hello_interval(1.0, hi_min=2.0, hi_max=20.0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            dynamic_hello_interval(0.0, nv_max=0.0)
        with pytest.raises(ValueError):
            dynamic_hello_interval(0.0, hi_min=5.0, hi_max=1.0)
