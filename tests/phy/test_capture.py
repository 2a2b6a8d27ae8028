"""Capture-effect model and its channel integration."""

import pytest

from repro.phy.capture import CaptureModel
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler

from tests.phy.test_channel import StubRadio, static_store


class TestCaptureModel:
    def test_threshold_conversion(self):
        assert CaptureModel(threshold_db=10.0).threshold_linear == pytest.approx(10.0)
        assert CaptureModel(threshold_db=0.0).threshold_linear == 1.0

    def test_power_decays_with_distance(self):
        model = CaptureModel(pathloss_exponent=4.0)
        assert model.power(10.0) > model.power(20.0)
        # Factor-two distance, alpha=4: 16x power ratio.
        assert model.power(10.0) / model.power(20.0) == pytest.approx(16.0)

    def test_power_clamped_at_min_distance(self):
        model = CaptureModel(min_distance=1.0)
        assert model.power(0.0) == model.power(0.5) == model.power(1.0)

    def test_survives(self):
        model = CaptureModel(threshold_db=10.0)
        assert model.survives(10.0, 1.0)  # SIR = 10 >= 10
        assert not model.survives(9.0, 1.0)
        assert model.survives(0.001, 0.0)  # no interference

    def test_validation(self):
        with pytest.raises(ValueError):
            CaptureModel(pathloss_exponent=0.0)
        with pytest.raises(ValueError):
            CaptureModel(min_distance=0.0)
        with pytest.raises(ValueError):
            CaptureModel().power(-1.0)


def capture_channel(positions, capture):
    scheduler = Scheduler()
    channel = Channel(
        scheduler, PhyParams(radio_radius=100.0),
        static_store(positions), capture=capture,
    )
    radios = []
    for host_id in range(len(positions)):
        radio = StubRadio().bind(scheduler)
        channel.attach(host_id, radio)
        radios.append(radio)
    return scheduler, channel, radios


class TestChannelCapture:
    def test_near_frame_captures_over_far_interferer(self):
        """Receiver at 5 m from sender A, 95 m from sender C: A's frame is
        ~(95/5)^4 stronger and survives the overlap; C's frame dies."""
        positions = [(0, 0), (5, 0), (100, 0)]
        scheduler, channel, radios = capture_channel(
            positions, CaptureModel(threshold_db=10.0, pathloss_exponent=4.0)
        )
        channel.start_transmission(0, "near", 0.002)
        scheduler.schedule(0.0005, channel.start_transmission, 2, "far", 0.002)
        scheduler.run()
        assert [f for _, f, _ in radios[1].received] == ["near"]
        assert [f for _, f, _ in radios[1].corrupted] == ["far"]

    def test_comparable_powers_still_collide(self):
        """Equidistant senders: SIR = 1 < threshold, both frames die."""
        positions = [(0, 0), (50, 0), (100, 0)]
        scheduler, channel, radios = capture_channel(
            positions, CaptureModel(threshold_db=10.0)
        )
        channel.start_transmission(0, "a", 0.002)
        scheduler.schedule(0.0005, channel.start_transmission, 2, "b", 0.002)
        scheduler.run()
        assert radios[1].received == []
        assert len(radios[1].corrupted) == 2

    def test_corrupted_frame_stays_corrupted(self):
        """A frame garbled by one overlap is not resurrected when a later,
        weaker frame would have let it pass."""
        positions = [(0, 0), (50, 0), (100, 0), (51, 1)]
        scheduler, channel, radios = capture_channel(
            positions, CaptureModel(threshold_db=10.0)
        )
        # a and b comparable at host 1 -> both corrupted.
        channel.start_transmission(0, "a", 0.004)
        scheduler.schedule(0.0005, channel.start_transmission, 2, "b", 0.001)
        scheduler.run(until=0.002)
        # b ended; only a remains, but a was already corrupted.
        scheduler.run()
        assert all(f in ("a", "b") for _, f, _ in radios[1].corrupted)
        assert [f for _, f, _ in radios[1].received] == []

    def test_no_capture_default_garbles_everything(self):
        positions = [(0, 0), (5, 0), (100, 0)]
        scheduler, channel, radios = capture_channel(positions, None)
        channel.start_transmission(0, "near", 0.002)
        scheduler.schedule(0.0005, channel.start_transmission, 2, "far", 0.002)
        scheduler.run()
        assert radios[1].received == []

    def test_abort_and_detach_leave_no_stale_power(self):
        """An aborted frame, and a frame in flight at a receiver that
        crashed, leave no power behind in its capture inbox: a later
        overlap is still won by the strong frame."""
        positions = [(0, 0), (5, 0), (100, 0), (10, 0)]
        scheduler, channel, radios = capture_channel(
            positions, CaptureModel(threshold_db=10.0, pathloss_exponent=4.0)
        )

        def overlap(start):
            # Host 3 (5 m from host 1) against host 2 (95 m from it).
            scheduler.schedule_at(
                start, channel.start_transmission, 3, "strong", 0.002
            )
            scheduler.schedule_at(
                start + 0.0005, channel.start_transmission, 2, "weak", 0.002
            )

        # Host 0's frame is aborted mid-air.
        channel.start_transmission(0, "aborted", 0.002)
        scheduler.schedule_at(0.001, channel.abort_transmission, 0)
        overlap(0.005)
        # Host 1 crashes while hearing host 0, and comes back.
        scheduler.schedule_at(0.010, channel.start_transmission, 0, "lost", 0.002)
        scheduler.schedule_at(0.0105, channel.detach, 1)
        scheduler.schedule_at(0.011, channel.attach, 1, radios[1])
        overlap(0.015)
        scheduler.run()
        assert [f for _, f, _ in radios[1].received] == ["strong", "strong"]
