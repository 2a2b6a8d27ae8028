"""Metric formulas and aggregation."""

import math
import pickle

import pytest

from repro.metrics.collector import (
    BroadcastRecord,
    MetricsCollector,
    SettledBroadcast,
    SummaryStat,
)


def make_record(**overrides):
    defaults = dict(key=(0, 1), source_id=0, origin_time=10.0, reachable_count=4)
    defaults.update(overrides)
    return BroadcastRecord(**defaults)


def one_broadcast(collector, key=(0, 1)):
    collector.on_originate(key, 0, 10.0, reachable_count=2)
    collector.on_source_tx_end(key, 10.002)
    collector.on_receive(key, 1, 10.1)
    collector.on_receive(key, 2, 10.2)
    collector.on_rebroadcast_start(key, 1, 10.3)
    collector.on_rebroadcast_end(key, 1, 10.31)
    collector.on_inhibit(key, 2, 10.25)


class TestBroadcastRecord:
    def test_reachability_ratio(self):
        record = make_record(reachable_count=4)
        for host, t in [(1, 10.1), (2, 10.2), (3, 10.3)]:
            record.received_times[host] = t
        assert record.reachability == pytest.approx(0.75)

    def test_reachability_none_when_source_isolated(self):
        record = make_record(reachable_count=0)
        assert record.reachability is None

    def test_srb_formula(self):
        record = make_record()
        record.received_times = {1: 10.1, 2: 10.1, 3: 10.1, 4: 10.1}
        record.rebroadcasters = {1}
        assert record.saved_rebroadcast == pytest.approx(0.75)

    def test_srb_zero_when_everyone_rebroadcasts(self):
        record = make_record()
        record.received_times = {1: 10.1, 2: 10.1}
        record.rebroadcasters = {1, 2}
        assert record.saved_rebroadcast == 0.0

    def test_srb_none_when_nothing_received(self):
        assert make_record().saved_rebroadcast is None

    def test_latency_last_decision(self):
        record = make_record(origin_time=10.0)
        record.source_tx_end = 10.002
        record.received_times = {1: 10.1, 2: 10.2}
        record.decision_times = {1: 10.15, 2: 10.4}
        assert record.latency() == pytest.approx(0.4)

    def test_latency_includes_source_tx_when_last(self):
        record = make_record(origin_time=10.0)
        record.source_tx_end = 10.5
        record.received_times = {1: 10.1}
        record.decision_times = {1: 10.2}
        assert record.latency() == pytest.approx(0.5)

    def test_latency_fallback_for_undecided(self):
        record = make_record(origin_time=10.0)
        record.received_times = {1: 10.1}
        assert record.latency(fallback_end=12.0) == pytest.approx(2.0)

    def test_latency_none_when_no_receivers(self):
        assert make_record().latency() is None


class TestSummaryStat:
    def test_of_empty_is_none(self):
        assert SummaryStat.of([]) is None

    def test_mean_and_std(self):
        stat = SummaryStat.of([1.0, 2.0, 3.0])
        assert stat.mean == pytest.approx(2.0)
        assert stat.std == pytest.approx(1.0)
        assert stat.count == 3

    def test_single_value_zero_std(self):
        stat = SummaryStat.of([5.0])
        assert stat.std == 0.0
        assert stat.sem == 0.0

    def test_sem(self):
        stat = SummaryStat.of([1.0, 2.0, 3.0, 4.0])
        assert stat.sem == pytest.approx(stat.std / 2.0)


class TestMetricsCollector:
    def test_full_flow(self):
        collector = MetricsCollector()
        one_broadcast(collector)
        summary = collector.summarize()
        assert summary.broadcasts == 1
        assert summary.reachability.mean == pytest.approx(1.0)
        assert summary.saved_rebroadcast.mean == pytest.approx(0.5)
        assert summary.latency.mean == pytest.approx(0.31)

    def test_duplicate_receive_ignored(self):
        collector = MetricsCollector()
        collector.on_originate((0, 1), 0, 0.0, 5)
        collector.on_receive((0, 1), 1, 1.0)
        collector.on_receive((0, 1), 1, 2.0)
        assert collector.records[(0, 1)].received_times == {1: 1.0}

    def test_duplicate_originate_rejected(self):
        collector = MetricsCollector()
        collector.on_originate((0, 1), 0, 0.0, 5)
        with pytest.raises(ValueError):
            collector.on_originate((0, 1), 0, 1.0, 5)

    def test_events_for_unknown_key_ignored(self):
        collector = MetricsCollector()
        collector.on_receive((9, 9), 1, 1.0)
        collector.on_inhibit((9, 9), 1, 1.0)
        collector.on_rebroadcast_start((9, 9), 1, 1.0)
        collector.on_rebroadcast_end((9, 9), 1, 1.0)
        collector.on_source_tx_end((9, 9), 1.0)
        assert collector.records == {}

    def test_inhibit_does_not_override_rebroadcast_end(self):
        collector = MetricsCollector()
        collector.on_originate((0, 1), 0, 0.0, 5)
        collector.on_receive((0, 1), 1, 0.1)
        collector.on_rebroadcast_end((0, 1), 1, 0.2)
        collector.on_inhibit((0, 1), 1, 0.3)
        assert collector.records[(0, 1)].decision_times[1] == 0.2

    def test_hello_counters(self):
        collector = MetricsCollector()
        collector.on_hello_sent(3)
        collector.on_hello_sent(3)
        collector.on_hello_sent(7)
        assert collector.hello_packets_sent == 3
        assert collector.hello_counts_by_host == {3: 2, 7: 1}

    def test_summary_row_nan_for_undefined(self):
        collector = MetricsCollector()
        collector.on_originate((0, 1), 0, 0.0, 0)  # isolated source
        row = collector.summarize().row()
        assert math.isnan(row["re"])
        assert math.isnan(row["srb"])
        assert row["broadcasts"] == 1

    def test_aggregation_over_multiple_broadcasts(self):
        collector = MetricsCollector()
        one_broadcast(collector, key=(0, 1))
        # Second broadcast: only 1 of 2 reachable receives.
        collector.on_originate((5, 2), 5, 20.0, reachable_count=2)
        collector.on_receive((5, 2), 1, 20.1)
        collector.on_rebroadcast_start((5, 2), 1, 20.2)
        collector.on_rebroadcast_end((5, 2), 1, 20.21)
        summary = collector.summarize()
        assert summary.reachability.mean == pytest.approx((1.0 + 0.5) / 2)
        assert summary.saved_rebroadcast.mean == pytest.approx((0.5 + 0.0) / 2)


class TestSettlement:
    """A broadcast settles once no copy can arrive: its source's frame
    has ended and every receiver has decided, all strictly before now."""

    def _collector(self):
        collector = MetricsCollector()
        one_broadcast(collector)
        return collector

    def test_settles_strictly_after_the_last_decision(self):
        collector = self._collector()
        assert collector.settle(10.31) == []  # the decision's own instant
        record = collector.records[(0, 1)]
        assert collector.settle(10.32) == [(0, 1)]
        settled = collector.records[(0, 1)]
        assert isinstance(settled, SettledBroadcast)
        assert settled.received_count == 2
        assert settled.rebroadcast_count == 1
        assert settled.reachability == record.reachability
        assert settled.saved_rebroadcast == record.saved_rebroadcast
        assert settled.latency() == record.latency()
        assert collector.settle(11.0) == []  # already settled

    def test_undecided_receiver_or_frame_on_the_air_keeps_it_open(self):
        collector = MetricsCollector()
        collector.on_originate((0, 1), 0, 10.0, reachable_count=2)
        assert collector.settle(20.0) == []  # the source frame never ended
        collector.on_source_tx_end((0, 1), 10.002)
        collector.on_receive((0, 1), 1, 10.002)
        collector.on_rebroadcast_start((0, 1), 1, 10.1)
        assert collector.settle(20.0) == []  # its rebroadcast is on the air
        collector.on_rebroadcast_end((0, 1), 1, 10.102)
        assert collector.settle(20.0) == [(0, 1)]

    def test_final_settlement_charges_the_end_to_undecided_receivers(self):
        collector = MetricsCollector()
        collector.on_originate((0, 1), 0, 10.0, reachable_count=2)
        collector.on_source_tx_end((0, 1), 10.002)
        collector.on_receive((0, 1), 1, 10.002)
        record = collector.records[(0, 1)]
        expected = collector.summarize(end_time=15.0)
        assert collector.settle(15.0, final=True) == [(0, 1)]
        assert collector.records[(0, 1)].latency() == record.latency(15.0)
        assert collector.summarize(end_time=15.0) == expected

    def test_update_of_a_settled_broadcast_raises(self):
        collector = self._collector()
        collector.settle(11.0)
        key = (0, 1)
        for update in (
            lambda: collector.on_source_tx_end(key, 11.0),
            lambda: collector.on_receive(key, 3, 11.0),
            lambda: collector.on_rebroadcast_start(key, 2, 11.0),
            lambda: collector.on_rebroadcast_end(key, 2, 11.0),
            lambda: collector.on_inhibit(key, 2, 11.0),
        ):
            with pytest.raises(RuntimeError, match="settled"):
                update()

    def test_outcome_compares_and_pickles_by_value(self):
        collector = self._collector()
        collector.settle(11.0)
        again = pickle.loads(pickle.dumps(collector))
        assert again == collector
        assert again.records[(0, 1)] == collector.records[(0, 1)]
        assert again.records[(0, 1)] != self._collector().records[(0, 1)]
