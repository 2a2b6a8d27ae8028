"""The benchmark's five paper workloads and the fingerprint that checks them.

All use 100 hosts and the paper's map-scaled speed (10 km/h per map unit)
unless stated.  Each workload is one *pass*: its scenarios run back to
back in this process through a :class:`BenchExecutor` (no process pool,
no result cache), which times each ``run_broadcast_simulation`` call in
slices on the passes whose times count.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import SimulationResult, run_broadcast_simulation
from repro.faults.plan import FaultPlan
from repro.net.host import HelloConfig
from repro.phy.capture import CaptureModel
from repro.sim.engine import Scheduler

#: Broadcasts per scenario under ``--quick``.
QUICK_BROADCASTS = 5

FIG13_MAPS = (1, 5, 9)
FIG13_BROADCASTS = 15
#: The cheapest of the three maps (the 1x1 map's HELLO traffic costs
#: four times as much even at 5 broadcasts).
FIG13_QUICK_MAPS = (9,)

LOSSY_FAULTS = "churn:rate=0.003,downtime=8;ge:p=0.03,r=0.4,bad=0.9"

#: Simulated seconds per timed slice of ``Scheduler.run`` (a few host
#: milliseconds or less on every workload).
SLICE_S = 0.25

#: The reference loop's time on an idle core of the machine the benchmark
#: was calibrated on (2-vCPU x86_64, Python 3.11): scaled times are host
#: seconds at the speed at which the loop takes this long.
REFERENCE_S = 72e-6
#: A simulator segment slows down by the reference loop's slowdown to this
#: power.  Fitted over ten seeds per workload with the machine between 1.2x
#: and 2.4x slowed: at 0.9, scaled throughput stops tracking the slowdown
#: on every workload (at 1.0 it rises with it).
SLOWDOWN_EXPONENT = 0.9
#: The same for world set-up, which allocates far more and slows down less
#: than the reference loop.  Over ten fresh processes per workload, 0.5
#: keeps the spread of set-up time (IQR/median) at 2-5%, where 0.9 left
#: 3-11%.
SETUP_SLOWDOWN_EXPONENT = 0.5


class _Host:
    """A stand-in for a simulated host in :func:`reference_loop`."""

    __slots__ = ("x", "y", "heard", "seen")

    def __init__(self, i: int) -> None:
        self.x = float(i % 17)
        self.y = float(i % 13)
        self.heard = 0
        self.seen: set = set()

    def hear(self, other: "_Host", k: int) -> bool:
        dx = self.x - other.x
        dy = self.y - other.y
        if dx * dx + dy * dy < 100.0:
            self.heard += 1
            self.seen.add(k & 63)
            return True
        return False


def reference_loop(hosts: List[_Host]) -> int:
    """Fixed work in the simulator's idiom (an event heap, slotted objects,
    float distance tests, set inserts) whose time reads the machine's
    current speed.

    It uses nothing from ``repro``, so changes under ``src/`` cannot move it.
    """
    heap: list = []
    heard = 0
    for k in range(120):
        heapq.heappush(heap, ((k * 2654435761) % 1000 * 0.001, k))
        if len(heap) > 16:
            _, j = heapq.heappop(heap)
            heard += hosts[j & 63].hear(hosts[(j * 31) & 63], j)
    return heard


class Timeline:
    """Host seconds of consecutive segments of a run, and the time of the
    reference loop at each boundary between them.

    :meth:`mark` ends the current segment, times the reference loop, and
    starts the next segment; the loop's own time is in no segment.
    """

    __slots__ = ("segments", "probes", "_start", "_hosts")

    def __init__(self) -> None:
        self.segments: List[float] = []
        #: One per call of :meth:`mark`: ``len(segments) + 1`` once closed.
        self.probes: List[float] = []
        self._start: Optional[float] = None
        self._hosts = [_Host(i) for i in range(64)]

    def mark(self) -> None:
        perf = time.perf_counter
        now = perf()
        if self._start is not None:
            self.segments.append(now - self._start)
        # A collection the simulator's allocations have made due would
        # otherwise land in the loop and read as a slow machine.
        gc.disable()
        t0 = perf()
        reference_loop(self._hosts)
        self._start = perf()
        gc.enable()
        self.probes.append(self._start - t0)

    def scaled(self, exponent: float = SLOWDOWN_EXPONENT) -> List[float]:
        """Each segment in host seconds at the reference speed.

        The machine is shared, and other tenants slow everything on it by
        up to 2.4x, for stretches of milliseconds to minutes.  A segment's
        slowdown is read from the geometric mean of the reference loop's
        times on either side of it, against :data:`REFERENCE_S`, raised to
        ``exponent``.
        """
        probes = self.probes
        return [
            seconds * (REFERENCE_S / math.sqrt(probes[i] * probes[i + 1])) ** exponent
            for i, seconds in enumerate(self.segments)
        ]


class Run(NamedTuple):
    result: SimulationResult
    #: The run's segments when the executor slices (world build, each
    #: ``SLICE_S`` slice of the event loop, summary), else ``None``.
    timeline: Optional[Timeline]


class BenchExecutor:
    """``run_many`` that runs each scenario in turn in this process (no
    pool, no result cache) and keeps every result.

    With ``sliced``, ``Scheduler.run(until=...)`` is replaced for the
    duration of each run by a loop of ``run(until=t)`` calls, ``SLICE_S``
    simulated seconds apart, and the reference loop is timed at every
    boundary (see :class:`Timeline`).  The events executed and their order
    are unchanged (no simulator code runs between slices).  A slice
    replays identically in every pass, so its times across passes, each
    scaled by the machine's speed around it, estimate its host time with
    the machine's contention removed (see ``run.WorkloadBench.wall``).
    """

    def __init__(self, call: Callable[[ScenarioConfig], SimulationResult],
                 sliced: bool = False) -> None:
        self.call = call
        self.sliced = sliced
        self.runs: List[Run] = []

    def run_many(self, configs: List[ScenarioConfig]) -> List[SimulationResult]:
        results = []
        for config in configs:
            timeline = None
            if self.sliced:
                timeline = Timeline()
                with _sliced_scheduler(timeline):
                    timeline.mark()
                    result = self.call(config)
                    timeline.mark()
            else:
                result = self.call(config)
            self.runs.append(Run(result, timeline))
            results.append(result)
        return results


@contextmanager
def _sliced_scheduler(timeline: Timeline) -> Iterator[None]:
    original = vars(Scheduler)["run"]

    def run(scheduler, until=None):
        if until is None:
            return original(scheduler)
        t = scheduler.now
        timeline.mark()
        while True:
            t = min(t + SLICE_S, until)
            now = original(scheduler, t)
            timeline.mark()
            if t >= until:
                return now

    Scheduler.run = run
    try:
        yield
    finally:
        Scheduler.run = original


class _Collected(Exception):
    pass


class _ConfigCollector:
    """An executor that records the batch it is handed and stops the figure."""

    def __init__(self) -> None:
        self.configs: List[ScenarioConfig] = []

    def run_many(self, configs: List[ScenarioConfig]) -> List[SimulationResult]:
        self.configs = list(configs)
        raise _Collected


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in ``BENCHMARK.json`` and the README."""

    name: str
    #: One scenario (its seed is replaced per run); ``None`` for the
    #: Fig. 13 lineup, which runs through the figure driver instead.
    scenario: Optional[ScenarioConfig] = None
    #: Independent worlds per pass, seeded ``worlds * seed + k``: where one
    #: world's throughput depends too much on its topology, a pass
    #: averages several.
    worlds: int = 1

    def _run_figure(self, executor, seed: int, quick: bool) -> None:
        # Imported here: the figures package pulls in scipy, which would
        # inflate the peak RSS of every other workload.
        from repro.experiments.figures import fig13
        from repro.experiments.figures.common import set_default_executor

        previous = set_default_executor(executor)
        try:
            fig13.run(
                maps=FIG13_QUICK_MAPS if quick else FIG13_MAPS,
                num_broadcasts=QUICK_BROADCASTS if quick else FIG13_BROADCASTS,
                seed=seed,
            )
        finally:
            set_default_executor(previous)

    def configs(self, seed: int, quick: bool = False) -> List[ScenarioConfig]:
        """The pass's scenarios, in run order."""
        if self.scenario is not None:
            seeds = [self.worlds * seed + k for k in range(self.worlds)]
            if quick:  # one world
                return [replace(self.scenario, seed=seeds[0], num_broadcasts=QUICK_BROADCASTS)]
            return [replace(self.scenario, seed=s) for s in seeds]
        collector = _ConfigCollector()
        try:
            self._run_figure(collector, seed, quick)
        except _Collected:
            pass
        return collector.configs

    def run(self, executor, seed: int, quick: bool = False) -> None:
        """One pass through ``executor``."""
        if self.scenario is None:
            self._run_figure(executor, seed, quick)
        else:
            executor.run_many(self.configs(seed, quick))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig13-lineup"),
        Workload(
            "storm-flood-1x1",
            ScenarioConfig(scheme="flooding", map_units=1, num_broadcasts=150),
        ),
        Workload(
            "hello-ac-1x1",
            ScenarioConfig(scheme="adaptive-counter", map_units=1, num_broadcasts=60),
        ),
        Workload(
            "sparse-ncdhi-9x9",
            ScenarioConfig(
                scheme="neighbor-coverage",
                map_units=9,
                max_speed_kmh=90.0,
                hello=HelloConfig(dynamic=True, nv_max=0.02, hi_min=1.0, hi_max=10.0),
                num_broadcasts=75,
            ),
            worlds=4,
        ),
        Workload(
            "lossy-capture-5x5",
            ScenarioConfig(
                scheme="adaptive-counter",
                map_units=5,
                num_broadcasts=100,
                capture=CaptureModel(),
                faults=FaultPlan.parse(LOSSY_FAULTS),
            ),
        ),
    )
}


def fingerprint(result: SimulationResult) -> Dict[str, object]:
    """What a run must reproduce exactly: counts and repr-exact means."""
    return {
        "events": result.events_processed,
        "transmissions": result.perf.transmissions,
        "deliveries": result.perf.deliveries,
        "hellos": result.hellos,
        "re": repr(result.re),
        "srb": repr(result.srb),
        "latency": repr(result.latency),
    }


class _SetupDone(Exception):
    pass


def time_setup(config: ScenarioConfig) -> Timeline:
    """Host seconds from ``config`` to a built ``Network``, as a one-segment
    :class:`Timeline`.

    The network hook fires right after construction; it ends the segment
    and raises to abort the run before any event executes.
    """
    timeline = Timeline()

    def hook(network) -> None:
        timeline.mark()
        raise _SetupDone

    timeline.mark()
    try:
        run_broadcast_simulation(config, network_hook=hook)
    except _SetupDone:
        pass
    return timeline
