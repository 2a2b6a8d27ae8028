"""Per-host mobility models.

Each host owns one model instance and queries ``position(t)``.  Queries must
be non-decreasing in ``t`` (which the event-driven simulator guarantees);
models lazily roll segments forward, so cost is O(1) amortized per query.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Callable, Optional, Tuple

from repro.mobility.map import RectMap

__all__ = [
    "MobilityModel",
    "RandomDirectionMobility",
    "RandomWaypointMobility",
    "StaticMobility",
    "make_mobility",
    "kmh_to_ms",
]


def kmh_to_ms(kmh: float) -> float:
    """Convert km/hour to meters/second."""
    return kmh / 3.6


class MobilityModel(ABC):
    """Interface: a host's position as a function of simulation time.

    Contract: ``position(t)`` depends only on ``t`` and this model's own
    state.  In particular a model draws from no RNG shared with another
    host's model.  :class:`repro.mobility.store.PositionStore` relies on
    this: it evaluates every host at every position epoch, whether or
    not anyone asks, so a model must not care when or how often it is
    queried.
    """

    __slots__ = ()

    @abstractmethod
    def position(self, time: float) -> Tuple[float, float]:
        """Position at ``time`` (seconds).  ``time`` must be non-decreasing
        across calls."""


class StaticMobility(MobilityModel):
    """A host that never moves."""

    __slots__ = ("_position",)

    def __init__(self, position: Tuple[float, float]) -> None:
        # ``+ 0.0`` turns -0.0 into 0.0, the zero a position store row
        # yields: nothing reads the sign, but bit patterns then match.
        self._position = (float(position[0]) + 0.0, float(position[1]) + 0.0)

    def position(self, time: float) -> Tuple[float, float]:
        return self._position


class _SegmentedMobility(MobilityModel):
    """Shared machinery: straight-line segments with reflective boundaries.

    Subclasses implement :meth:`_next_segment` returning
    ``(duration, velocity_x, velocity_y)`` for the segment starting at the
    current position.
    """

    __slots__ = (
        "_world", "_seg_start_time", "_seg_end_time", "_seg_origin",
        "_velocity", "_started",
    )

    def __init__(self, world: RectMap, start: Tuple[float, float]) -> None:
        if not world.contains(start):
            raise ValueError(f"start {start} outside map {world!r}")
        self._world = world
        self._seg_start_time = 0.0
        self._seg_end_time = 0.0
        # ``+ 0.0`` turns -0.0 into 0.0, the zero the batched fold yields.
        self._seg_origin = (float(start[0]) + 0.0, float(start[1]) + 0.0)
        self._velocity = (0.0, 0.0)
        self._started = False

    def _next_segment(self, rng_time: float) -> Tuple[float, float, float]:
        raise NotImplementedError

    def _roll_to(self, time: float) -> None:
        while time > self._seg_end_time or not self._started:
            if self._started:
                self._seg_origin = self._raw_position(self._seg_end_time)
                self._seg_start_time = self._seg_end_time
            self._started = True
            duration, vx, vy = self._next_segment(self._seg_start_time)
            self._seg_end_time = self._seg_start_time + duration
            self._velocity = (vx, vy)

    def _raw_position(self, time: float) -> Tuple[float, float]:
        dt = time - self._seg_start_time
        x = self._seg_origin[0] + self._velocity[0] * dt
        y = self._seg_origin[1] + self._velocity[1] * dt
        return self._world.reflect((x, y))

    def position(self, time: float) -> Tuple[float, float]:
        if time < 0:
            raise ValueError(f"negative time {time}")
        self._roll_to(time)
        if time < self._seg_start_time:
            raise ValueError(
                f"non-monotonic position query: t={time} but current segment "
                f"starts at {self._seg_start_time}"
            )
        return self._raw_position(time)


class RandomDirectionMobility(_SegmentedMobility):
    """The paper's roaming pattern (Section 4).

    A series of turns; per turn the direction is uniform over [0, 2*pi), the
    duration uniform over ``turn_duration_range`` (paper: 1..100 s) and the
    speed uniform over [0, ``max_speed_kmh``].  Motion reflects off map
    borders.
    """

    __slots__ = ("_rng", "_max_speed_ms", "_duration_range")

    def __init__(
        self,
        world: RectMap,
        rng: random.Random,
        max_speed_kmh: float,
        start: Optional[Tuple[float, float]] = None,
        turn_duration_range: Tuple[float, float] = (1.0, 100.0),
    ) -> None:
        if max_speed_kmh < 0:
            raise ValueError(f"max speed must be >= 0, got {max_speed_kmh}")
        lo, hi = turn_duration_range
        if lo <= 0 or hi < lo:
            raise ValueError(f"bad turn duration range {turn_duration_range}")
        if start is None:
            start = world.random_point(rng)
        super().__init__(world, start)
        self._rng = rng
        self._max_speed_ms = kmh_to_ms(max_speed_kmh)
        self._duration_range = (float(lo), float(hi))

    def _next_segment(self, rng_time: float) -> Tuple[float, float, float]:
        direction = self._rng.uniform(0.0, 2.0 * math.pi)
        duration = self._rng.uniform(*self._duration_range)
        speed = self._rng.uniform(0.0, self._max_speed_ms)
        return (duration, speed * math.cos(direction), speed * math.sin(direction))


class RandomWaypointMobility(_SegmentedMobility):
    """Classic random waypoint with optional pause, for ablations.

    The host picks a uniform destination in the map, travels to it at a
    uniform speed in ``(min_speed_kmh, max_speed_kmh]``, pauses, and repeats.
    """

    __slots__ = ("_rng", "_min_speed_ms", "_max_speed_ms", "_pause_time", "_pausing")

    def __init__(
        self,
        world: RectMap,
        rng: random.Random,
        max_speed_kmh: float,
        start: Optional[Tuple[float, float]] = None,
        min_speed_kmh: float = 0.1,
        pause_time: float = 0.0,
    ) -> None:
        if max_speed_kmh <= 0:
            raise ValueError(f"max speed must be > 0, got {max_speed_kmh}")
        if not 0 < min_speed_kmh <= max_speed_kmh:
            raise ValueError(
                f"need 0 < min_speed <= max_speed, got "
                f"{min_speed_kmh}..{max_speed_kmh}"
            )
        if pause_time < 0:
            raise ValueError(f"negative pause time {pause_time}")
        if start is None:
            start = world.random_point(rng)
        super().__init__(world, start)
        self._rng = rng
        self._min_speed_ms = kmh_to_ms(min_speed_kmh)
        self._max_speed_ms = kmh_to_ms(max_speed_kmh)
        self._pause_time = pause_time
        self._pausing = False

    def _next_segment(self, rng_time: float) -> Tuple[float, float, float]:
        if self._pausing:
            self._pausing = False
            return (self._pause_time, 0.0, 0.0)
        origin = self._seg_origin
        target = self._world.random_point(self._rng)
        dx = target[0] - origin[0]
        dy = target[1] - origin[1]
        dist = math.hypot(dx, dy)
        if dist < 1e-9:
            return (1.0, 0.0, 0.0)
        speed = self._rng.uniform(self._min_speed_ms, self._max_speed_ms)
        self._pausing = self._pause_time > 0.0
        return (dist / speed, dx / dist * speed, dy / dist * speed)


MobilityFactory = Callable[[RectMap, random.Random, float], MobilityModel]


def make_mobility(
    name: str,
    world: RectMap,
    rng: random.Random,
    max_speed_kmh: float,
    start: Optional[Tuple[float, float]] = None,
) -> MobilityModel:
    """Build a per-host mobility model by name.

    Names: ``"random-direction"`` (the paper's model), ``"random-waypoint"``,
    ``"static"``.
    """
    if name == "random-direction":
        return RandomDirectionMobility(world, rng, max_speed_kmh, start=start)
    if name == "random-waypoint":
        return RandomWaypointMobility(world, rng, max_speed_kmh, start=start)
    if name == "static":
        if start is None:
            start = world.random_point(rng)
        return StaticMobility(start)
    raise ValueError(f"unknown mobility model {name!r}")
