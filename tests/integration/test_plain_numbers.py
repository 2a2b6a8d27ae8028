"""Counters and result times are plain Python numbers, never numpy scalars.

The channel and the position store keep their state in numpy arrays.  A
value read out of them into a counter or an event time has to be turned
back into a Python ``int`` or ``float``: an ``np.int64`` counter breaks
``json.dumps`` of exported results, and an ``np.float64`` time changes
the ``repr``-based benchmark fingerprints.  This checks the types where
they are produced.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_broadcast_simulation
from repro.faults.plan import FaultPlan
from repro.mac.csma import MacStats
from repro.net.host import HelloConfig
from repro.phy.capture import CaptureModel
from repro.phy.channel import ChannelStats

SCENARIOS = {
    "flooding": ScenarioConfig(
        scheme="flooding", map_units=1, num_hosts=40, num_broadcasts=4,
        seed=2,
    ),
    "adaptive-counter": ScenarioConfig(
        scheme="adaptive-counter", map_units=3, num_hosts=40,
        num_broadcasts=4, seed=2,
    ),
    "adaptive-location": ScenarioConfig(
        scheme="adaptive-location", map_units=3, num_hosts=40,
        num_broadcasts=4, seed=2,
    ),
    "nc-dhi": ScenarioConfig(
        scheme="neighbor-coverage", map_units=3, num_hosts=40,
        num_broadcasts=4, seed=2, hello=HelloConfig(dynamic=True),
    ),
    "adaptive-counter-capture": ScenarioConfig(
        scheme="adaptive-counter", map_units=3, num_hosts=40,
        num_broadcasts=4, seed=2, capture=CaptureModel(),
        faults=FaultPlan.parse("churn:rate=0.02,downtime=3;loss:p=0.05"),
    ),
}

COUNTERS = {
    ChannelStats: [n for n in ChannelStats.__slots__ if "airtime" not in n],
    MacStats: list(MacStats.__slots__),
}


def counter_types(stats):
    return {
        name: type(getattr(stats, name)) for name in COUNTERS[type(stats)]
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_counters_and_times_are_python_numbers(name):
    captured = {}
    result = run_broadcast_simulation(
        SCENARIOS[name], network_hook=lambda net: captured.update(net=net)
    )
    network = captured["net"]
    assert result.stats.broadcasts > 0

    perf = result.perf.as_dict()
    assert {k: type(v) for k, v in perf.items()} == dict.fromkeys(perf, int)

    channel_stats = network.channel.stats
    assert counter_types(channel_stats) == dict.fromkeys(
        COUNTERS[ChannelStats], int
    )
    for airtime in (channel_stats.tx_airtime, channel_stats.rx_airtime):
        assert airtime
        assert {type(v) for v in airtime.values()} == {float}
    for host in network.hosts:
        assert counter_types(host.mac.stats) == dict.fromkeys(
            COUNTERS[MacStats], int
        ), host.host_id

    for field in ("re", "srb", "latency", "end_time"):
        assert type(getattr(result, field)) is float, field
