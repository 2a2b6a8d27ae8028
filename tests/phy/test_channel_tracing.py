"""Channel event tracing into a :class:`repro.trace.TraceRecorder`."""

from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler
from repro.trace.recorder import TraceRecorder

from tests.phy.test_channel import StubRadio, static_store


def traced_channel(positions):
    scheduler = Scheduler()
    recorder = TraceRecorder()
    channel = Channel(
        scheduler, PhyParams(radio_radius=100.0),
        static_store(positions), trace=recorder,
    )
    for host_id in range(len(positions)):
        channel.attach(host_id, StubRadio().bind(scheduler))
    return scheduler, channel, recorder


def count(recorder, category, **fields):
    """Records of ``category`` whose named fields equal ``fields``."""
    return sum(
        1
        for record in recorder.as_dicts(category)
        if all(record[name] == value for name, value in fields.items())
    )


def test_tx_and_rx_traced():
    scheduler, channel, recorder = traced_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()
    assert count(recorder, "tx-start", host=0) == 1
    assert count(recorder, "rx", sender=0, receiver=1) == 1
    assert count(recorder, "rx-corrupt") == 0


def test_collision_traced_as_corrupted():
    scheduler, channel, recorder = traced_channel([(0, 0), (50, 0), (100, 0)])
    channel.start_transmission(0, "a", 0.002)
    scheduler.schedule(0.001, channel.start_transmission, 2, "b", 0.002)
    scheduler.run()
    assert count(recorder, "rx-corrupt", receiver=1) == 2
    assert count(recorder, "rx", receiver=1) == 0


def test_trace_times_match_events():
    scheduler, channel, recorder = traced_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()
    tx = recorder.filter("tx-start")[0]
    rx = recorder.filter("rx")[0]
    assert tx[0] == 0.0
    assert rx[0] == 0.001


def test_tracing_off_by_default_costs_nothing():
    scheduler = Scheduler()
    channel = Channel(
        scheduler, PhyParams(radio_radius=100.0), static_store([(0.0, 0.0)])
    )
    channel.attach(0, StubRadio().bind(scheduler))
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()  # must not raise
