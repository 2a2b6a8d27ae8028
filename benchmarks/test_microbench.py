"""Engine micro-benchmarks (performance tracking, not paper figures).

These use pytest-benchmark's statistical timing (multiple rounds) since
they are fast; the figure benches run once by design.
"""

import random

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_broadcast_simulation
from repro.metrics.connectivity import reachable_set
from repro.mobility.map import RectMap
from repro.mobility.models import StaticMobility
from repro.mobility.store import PositionStore
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler


def test_scheduler_event_throughput(benchmark):
    """Raw schedule+dispatch cost for 10k chained events."""

    def run():
        scheduler = Scheduler()
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                scheduler.schedule(0.001, tick)

        scheduler.schedule(0.001, tick)
        scheduler.run()
        return scheduler.events_processed

    events = benchmark(run)
    assert events == 10_000


def test_channel_transmission_fanout(benchmark):
    """One transmission delivered to 99 in-range receivers."""
    params = PhyParams()
    # 10x10 grid, 30 m spacing: diagonal 382 m < 500 m radius, so every
    # host hears every transmission.
    positions = [(i % 10 * 30.0, i // 10 * 30.0) for i in range(100)]

    class Sink:
        def on_medium_state(self, busy):
            pass

        def on_frame_received(self, frame, sender_id):
            pass

        def on_frame_corrupted(self, frame, sender_id):
            pass

    def run():
        scheduler = Scheduler()
        store = PositionStore(
            [StaticMobility(p) for p in positions], RectMap(300.0, 300.0)
        )
        channel = Channel(scheduler, params, store)
        sink = Sink()
        for host_id in range(100):
            channel.attach(host_id, sink)
        for i in range(20):
            channel.start_transmission(i, "x", 0.001)
            scheduler.run()
        return channel.stats.deliveries

    deliveries = benchmark(run)
    assert deliveries == 20 * 99


def test_connectivity_snapshot_cost(benchmark):
    """Level-by-level numpy BFS over 500 hosts."""
    rng = random.Random(3)
    positions = {
        i: (rng.uniform(0, 5000), rng.uniform(0, 5000)) for i in range(500)
    }

    result = benchmark(reachable_set, positions, 0, 500.0)
    assert isinstance(result, set)


def test_full_simulation_throughput(benchmark):
    """A complete 10-broadcast flooding simulation (end-to-end cost)."""
    config = ScenarioConfig(
        scheme="flooding", map_units=3, num_hosts=50, num_broadcasts=10,
        seed=5,
    )

    result = benchmark(run_broadcast_simulation, config)
    assert result.stats.broadcasts == 10
