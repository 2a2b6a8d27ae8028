"""The bitset channel against the numpy reference channel.

Both channels are driven through the same random schedule -- frames that
overlap, deaf arrivals, aborts, detaches in the middle of a frame and
re-attaches -- each in its own scheduler, and must tell their listeners
the same things in the same order: every medium edge (host, busy, time),
every delivery and corruption upcall, every bulk-delivery offer and
every drop-predicate query.  ``ChannelStats``, the per-host MAC tallies
and the per-host carrier state must match too, also when read mid-run.

Hosts attach in a random order and re-attach after detaching, so attach
order diverges from id order: edges, deliveries, predicate queries and
resumes must follow attach order, not bit order.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mac.csma import MacStats
from repro.phy.capture import CaptureModel
from repro.phy.channel import Channel, RadioListener
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler

from tests.phy.reference_channel import ReferenceChannel
from tests.phy.test_channel import host_flags, static_store

RADIUS = 100.0
#: Action and frame times sit on this grid, so frames start and end at
#: the same instants and zero-delay busy edges race real events.
TICK = 0.0005
DURATIONS = (0.001, 0.0015, 0.002)


class Listener(RadioListener):
    """A MAC-like listener: counts receptions in its ``stats`` and logs
    every upcall.  ``notify`` decides whether it wants corruption upcalls
    (``False`` lets the channel log them in bulk); it may leave the edge
    subscription when an edge reaches it."""

    def __init__(self, host_id, world, notify, leave_on):
        self.host_id = host_id
        self.world = world
        self.stats = MacStats()
        self._notify_corrupt = notify
        # Edge counts at which the listener unsubscribes itself.
        self.leave_on = leave_on
        self.edges = 0

    def on_medium_state(self, busy):
        world = self.world
        world.log.append(("edge", self.host_id, busy, world.scheduler.now))
        self.edges += 1
        if self.edges in self.leave_on:
            world.set_subscribed(self.host_id, False)

    def on_frame_received(self, frame, sender_id):
        self.stats.frames_received += 1
        self.world.log.append(
            ("rx", self.host_id, frame, sender_id, self.world.scheduler.now)
        )

    def on_frame_corrupted(self, frame, sender_id):
        self.stats.frames_corrupted += 1
        self.world.log.append(
            ("corrupt", self.host_id, frame, sender_id, self.world.scheduler.now)
        )


class BatchListener(Listener):
    """A listener whose class takes a whole edge in one call, the way
    :class:`repro.mac.csma.CsmaCaMac` does."""

    @staticmethod
    def on_medium_edge(listeners, busy):
        for listener in listeners:
            Listener.on_medium_state(listener, busy)


class Recorder:
    def __init__(self):
        self.records = []


class World:
    """One channel, its scheduler and everything it tells the outside."""

    def __init__(self, channel_cls, spec):
        self.scheduler = Scheduler()
        self.log = []
        self.channel_cls = channel_cls
        self.spec = spec
        rng = random.Random(spec["drop_seed"])

        def predicate(sender_id, receiver_id):
            self.log.append(("drop?", sender_id, receiver_id))
            return rng.random() < spec["drop_p"]

        self.trace = Recorder() if spec["trace"] else None
        self.channel = channel_cls(
            self.scheduler, PhyParams(radio_radius=RADIUS),
            static_store(spec["positions"]),
            predicate if spec["drop_p"] is not None else None,
            capture=CaptureModel() if spec["capture"] else None,
            trace=self.trace,
        )
        if spec["bulk"]:
            self.channel.bulk_delivery = self.bulk
        self.listeners = {}  # the attached ones
        self.built = {}  # every listener, detached ones included
        for host_id in spec["attach_order"]:
            self.attach(host_id)
        for at, action in spec["actions"]:
            self.scheduler.schedule_at(at * TICK, self.act, *action)

    def bulk(self, frame, receiver_ids):
        """Takes the frames whose number is even, declines the rest."""
        taken = int(frame[1:]) % 2 == 0
        self.log.append(
            ("bulk", frame, receiver_ids.tolist(), taken, self.scheduler.now)
        )
        return taken

    def set_subscribed(self, host_id, flag):
        channel = self.channel
        if self.channel_cls is ReferenceChannel:
            channel.subscribed[host_id] = flag
        elif flag:
            channel.subscribed |= 1 << host_id
        else:
            channel.subscribed &= ~(1 << host_id)

    def attach(self, host_id):
        """Attach ``host_id``'s listener, made on first attach; a host
        re-attaches its own listener, as a MAC's ``restart`` does."""
        listener = self.built.get(host_id)
        if listener is None:
            spec = self.spec
            cls = BatchListener if spec["batch"][host_id] else Listener
            listener = self.built[host_id] = cls(
                host_id, self, spec["notify"][host_id],
                spec["leave_on"][host_id],
            )
        self.listeners[host_id] = listener
        self.channel.attach(host_id, listener)

    def act(self, kind, host_id, arg):
        channel = self.channel
        attached = host_id in self.listeners
        if kind == "tx":
            if attached and not channel.is_transmitting(host_id):
                channel.start_transmission(host_id, f"f{arg}", DURATIONS[arg % 3])
        elif kind == "abort":
            self.log.append(("abort", host_id, channel.abort_transmission(host_id)))
        elif kind == "detach":
            if attached:
                del self.listeners[host_id]
                channel.detach(host_id)
        elif kind == "attach":
            if not attached:
                self.attach(host_id)
        elif kind == "subscribe":
            if attached:
                self.set_subscribed(host_id, True)
        else:  # "stats": a mid-run read folds the tallies
            self.log.append(("stats", self.snapshot()))

    def snapshot(self):
        channel = self.channel
        stats = channel.stats
        n = len(self.spec["positions"])
        if self.channel_cls is ReferenceChannel:
            sensed = channel.sensed_busy.tolist()
            subscribed = channel.subscribed.tolist()
        else:
            sensed = host_flags(channel.sensed, n)
            subscribed = host_flags(channel.subscribed, n)
        fields = [
            name for name in stats.__slots__ if not name.endswith("airtime")
        ]
        return {
            "counters": {name: getattr(stats, name) for name in fields},
            "tx_airtime": list(stats.tx_airtime.items()),
            "rx_airtime": list(stats.rx_airtime.items()),
            "total_rx_airtime": stats.total_rx_airtime,
            "mac": [
                (host_id, listener.stats.frames_received,
                 listener.stats.frames_corrupted)
                for host_id, listener in self.built.items()
            ],
            "sensed": sensed,
            "subscribed": subscribed,
            "idle_since": channel.idle_since.tolist(),
            "carrier_busy": [channel.carrier_busy(h) for h in range(n)],
            "transmitting": [channel.is_transmitting(h) for h in range(n)],
        }


ACTION_KINDS = ("tx",) * 6 + ("detach", "attach") * 2 + (
    "abort", "subscribe", "stats",
)
#: Mostly the simulator's own dispatch path: untraced, every listener
#: swallowing corruption upcalls.
RARELY = st.sampled_from([False, False, False, True])


@st.composite
def schedules(draw):
    n = draw(st.integers(2, 10))
    positions = draw(st.lists(
        st.tuples(st.floats(0.0, 200.0), st.floats(0.0, 80.0)),
        min_size=n, max_size=n,
    ))
    order = list(range(n))
    if draw(st.booleans()):
        order = draw(st.permutations(order))
    any_notify = draw(RARELY)
    actions = draw(st.lists(
        st.tuples(
            st.integers(0, 30),
            st.tuples(
                st.sampled_from(ACTION_KINDS),
                st.integers(0, n - 1),
                st.integers(0, 99),
            ),
        ),
        max_size=40,
    ))
    return {
        "positions": positions,
        "attach_order": order,
        "notify": [any_notify and draw(st.booleans()) for _ in range(n)],
        "batch": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        "leave_on": [
            frozenset(draw(st.lists(st.integers(1, 6), max_size=2)))
            for _ in range(n)
        ],
        "drop_p": draw(st.one_of(st.none(), st.sampled_from([0.2, 0.5]))),
        "drop_seed": draw(st.integers(0, 2**16)),
        "capture": draw(st.booleans()),
        "trace": draw(RARELY),
        "bulk": draw(st.booleans()),
        "actions": sorted(actions, key=lambda action: action[0]),
    }


def run(channel_cls, spec):
    world = World(channel_cls, spec)
    world.scheduler.run()
    world.log.append(("final", world.snapshot()))
    if world.trace is not None:
        world.log += world.trace.records
    return world.log


def first_mismatch(log, expected):
    """``None``, or the first position where ``log`` leaves ``expected``
    with the two entries there (a short report instead of a diff of two
    long logs)."""
    for at, (entry, wanted) in enumerate(zip(log, expected)):
        if entry != wanted:
            return at, entry, wanted
    if len(log) != len(expected):
        at = min(len(log), len(expected))
        return at, log[at:at + 1], expected[at:at + 1]
    return None


def same_spot(n, actions, **spec):
    """A schedule on ``n`` hosts at one spot, attached in id order."""
    base = {
        "positions": [(0.0, 0.0)] * n,
        "attach_order": list(range(n)),
        "notify": [False] * n,
        "batch": [False] * n,
        "leave_on": [frozenset()] * n,
        "drop_p": None,
        "drop_seed": 0,
        "capture": False,
        "trace": False,
        "bulk": False,
        "actions": actions,
    }
    base.update(spec)
    return base


@settings(max_examples=300, deadline=None)
@given(spec=schedules())
# Host 1 re-attaches between a frame's start and its busy edge: the edge
# still goes out in the frame's receiver order, host 1 before host 2,
# although host 1 is now last in attach order.
@example(spec=same_spot(3, [
    (0, ("tx", 0, 0)), (0, ("detach", 1, 0)), (0, ("attach", 1, 0)),
]))
# A bulk-delivered frame's MAC bumps, logged, reach host 1's listener
# after it has detached and re-attached itself.
@example(spec=same_spot(8, [
    (0, ("tx", 0, 0)), (3, ("detach", 1, 0)), (3, ("attach", 1, 0)),
], bulk=True))
def test_bitset_channel_matches_the_reference(spec):
    mismatch = first_mismatch(run(Channel, spec), run(ReferenceChannel, spec))
    assert mismatch is None


def test_schedules_reach_the_paths_they_are_meant_to():
    """A fixed schedule through every path at once: overlaps at a
    receiver, a deaf arrival, a drop, a detach mid-frame and a re-attach
    (attach order then differs from id order), a detach that races a
    busy edge, an abort and mid-run stats reads; both channels agree on
    all of it."""
    spec = {
        "positions": [(0.0, 0.0), (60.0, 0.0), (120.0, 0.0), (60.0, 50.0)],
        "attach_order": [0, 1, 2, 3],
        "notify": [False] * 4,
        "batch": [True, True, False, True],
        "leave_on": [frozenset()] * 4,
        "drop_p": 0.3,
        "drop_seed": 7,
        "capture": False,
        "trace": False,
        "bulk": True,
        "actions": [
            (0, ("tx", 0, 0)),
            (1, ("tx", 2, 1)),
            (2, ("tx", 1, 2)),
            (2, ("detach", 3, 0)),
            (3, ("attach", 3, 0)),
            (4, ("stats", 0, 0)),
            (10, ("tx", 3, 4)),
            (10, ("tx", 1, 6)),
            (11, ("abort", 3, 0)),
            (14, ("tx", 2, 8)),
            (20, ("tx", 0, 10)),
            (25, ("tx", 3, 12)),
            (30, ("tx", 1, 15)),
            # Host 1 detaches between a frame's start and its zero-delay
            # busy edge, which still marks it sensed; attaching again
            # must clear that.
            (34, ("tx", 0, 16)),
            (34, ("detach", 1, 0)),
            (35, ("attach", 1, 0)),
            (35, ("stats", 0, 0)),
        ],
    }
    log = run(Channel, spec)
    assert first_mismatch(log, run(ReferenceChannel, spec)) is None
    kinds = {entry[0] for entry in log}
    assert {"edge", "rx", "drop?", "bulk", "abort", "stats"} <= kinds
    final = log[-1][1]["counters"]
    assert final["collisions"] > 0
    assert final["deaf_misses"] > 0
    assert final["aborted_frames"] == 1
