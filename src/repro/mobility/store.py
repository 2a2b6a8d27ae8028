"""Batched host positions: numpy arrays over every host's mobility state.

A single transmission's receiver scan needs every host's position at one
instant, and a dense broadcast storm makes thousands of scans; asking
each host's :class:`~repro.mobility.models.MobilityModel` one call at a
time would make Python call overhead dominate the whole simulation.

:class:`PositionStore` mirrors every host's current motion segment
``(origin, velocity, segment start/end)`` into numpy arrays and evaluates
**all** positions for a timestamp in one batched call per *position epoch*
(the first query at each distinct simulation time, whether for all hosts
or for one).  Subsequent queries at the same instant are served from the
cached arrays.  A model that is not
one of the built-ins becomes a row re-evaluated with ``model.position(t)``
at each epoch.

Bit-identity contract
---------------------
The batched evaluation is float-for-float the same arithmetic as
:meth:`_SegmentedMobility.position`:

- per element, ``x = origin + velocity * dt`` is one IEEE-754 multiply and
  one add, in numpy exactly as in CPython.  Origin, velocity, segment
  start and position are each one ``(2, n)`` array (row 0 for x, row 1 for
  y; the start time is stored in both rows), so an epoch is one subtract,
  one multiply and one add over whole arrays, with no broadcasting, and
  the per-element arithmetic is unchanged;
- the reflective fold is four masked whole-array operations over the
  coordinates *flagged* when their segment was synced: those whose raw
  segment end ``(t1 - t0) * v + o``, in the epoch's own arithmetic, lies
  off the map.  A segment starts on the map and raw motion is monotone
  within it (subtract, multiply and add are each monotone under
  rounding), so an unflagged coordinate is on the map at every time an
  epoch reads it.  A flagged one is folded as
  :func:`repro.mobility.map._fold` folds it (``np.remainder`` is Python's
  ``%`` bit for bit, then the mirror), and folding an on-map coordinate
  changes nothing, so this is the models' fold of both coordinates of an
  off-map row.  Fixed rows are never flagged;
- segment rolls are delegated to the models themselves (``_roll_to``), so
  every RNG draw happens on the same per-host stream in the same per-host
  order as querying the model directly.

Batching evaluates (and rolls) every host at every epoch, including hosts
nobody is asking about, such as a crashed host that keeps moving.  That
is only safe because of the :class:`~repro.mobility.models.MobilityModel`
contract: a position depends only on ``t`` and the model's own state,
with no RNG shared across hosts, so when a model is evaluated never
changes what it returns.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.mobility.map import RectMap
from repro.mobility.models import MobilityModel, StaticMobility, _SegmentedMobility

__all__ = ["PositionStore"]


class PositionStore:
    """Vectorized per-instant positions for hosts ``0 .. n-1``.

    One instance per :class:`~repro.net.network.Network`.  Queries must be
    non-decreasing in time, which the event-driven scheduler guarantees.
    """

    __slots__ = (
        "size", "_models", "_custom", "_world_w", "_world_h", "_upper",
        "_period", "_flags", "_flip", "_origin", "_velocity", "_t0", "_t1",
        "_t1_min", "xy", "_x", "_y", "_time", "epoch_hits", "batch_evals",
        "segment_rolls",
    )

    def __init__(
        self,
        models: Sequence[MobilityModel],
        world: RectMap,
    ) -> None:
        self.size = len(models)
        self._models = list(models)
        self._world_w = world.width
        self._world_h = world.height
        #: The map's width in row 0 and height in row 1, and the fold's
        #: period, twice that (full size: broadcasting a column costs more
        #: at this n).
        self._upper = np.empty((2, self.size))
        self._upper[0] = world.width
        self._upper[1] = world.height
        self._period = 2.0 * self._upper
        #: Coordinates whose current segment ends off the map: the only
        #: ones an epoch folds.  Fixed rows are never flagged.
        self._flags = np.zeros((2, self.size), dtype=bool)
        #: Scratch for the fold's mirror mask.
        self._flip = np.empty((2, self.size), dtype=bool)
        #: The current motion segment of every host: origin and velocity
        #: (row 0 x, row 1 y), start time (in both rows) and end time.
        self._origin = np.empty((2, self.size))
        self._velocity = np.empty((2, self.size))
        self._t0 = np.empty((2, self.size))
        self._t1 = np.empty(self.size)
        #: All host positions at the current epoch: row 0 x, row 1 y.
        #: Rewritten in place by :meth:`arrays_at`, never reallocated.
        self.xy = xy = np.empty((2, self.size))
        self._x = xy[0]
        self._y = xy[1]
        #: ``(row, model)`` for models that are not built in, overwritten
        #: with ``model.position(t)`` after each batched evaluation.
        self._custom: List[Tuple[int, MobilityModel]] = []
        origin = self._origin
        velocity = self._velocity
        t0 = self._t0
        t1 = self._t1
        # Segmented rows are synced on first evaluation (their models have
        # not started yet); -inf forces the initial roll.
        t1.fill(-np.inf)
        for i, model in enumerate(self._models):
            if isinstance(model, _SegmentedMobility):
                continue
            if isinstance(model, StaticMobility):
                x, y = model.position(0.0)
            else:
                # A fixed row that never rolls or folds; the real
                # position is written in at each epoch.
                x = y = 0.0
                self._custom.append((i, model))
            origin[0, i] = x
            origin[1, i] = y
            velocity[0, i] = 0.0
            velocity[1, i] = 0.0
            t0[0, i] = t0[1, i] = 0.0
            t1[i] = np.inf
        #: The earliest segment end: no row is stale before this instant.
        self._t1_min = float(t1.min()) if self.size else np.inf
        self._time = -1.0
        #: Queries served from the cached current-epoch arrays.
        self.epoch_hits = 0
        #: Batched all-host evaluations (one per position epoch).
        self.batch_evals = 0
        #: Motion segments rolled forward during batched evaluations.
        self.segment_rolls = 0

    # -------------------------------------------------------------- sync

    def _sync_row(self, i: int, model: "_SegmentedMobility") -> None:
        ox, oy = model._seg_origin
        vx, vy = model._velocity
        start = model._seg_start_time
        end = model._seg_end_time
        origin = self._origin
        velocity = self._velocity
        origin[0, i] = ox
        origin[1, i] = oy
        velocity[0, i] = vx
        velocity[1, i] = vy
        t0 = self._t0
        t0[0, i] = t0[1, i] = start
        self._t1[i] = end
        # Flag a coordinate whose raw segment end, computed as an epoch at
        # ``end`` computes it, lies off the map.
        dt = end - start
        flags = self._flags
        flags[0, i] = not 0.0 <= dt * vx + ox <= self._world_w
        flags[1, i] = not 0.0 <= dt * vy + oy <= self._world_h

    # ----------------------------------------------------------- queries

    def arrays_at(self, time: float) -> Tuple[np.ndarray, np.ndarray]:
        """All host positions at ``time`` as ``(x, y)`` float64 arrays.

        The returned arrays are the store's epoch cache: treat them as
        read-only and do not hold them across epochs.
        """
        if time == self._time:
            self.epoch_hits += 1
            return self._x, self._y
        if time < self._time:
            raise ValueError(
                f"non-monotonic batched position query: t={time} after "
                f"t={self._time}"
            )
        self.batch_evals += 1
        # Roll hosts whose current segment ended (or never started).  The
        # model does the rolling -- same RNG stream, same draw order as
        # querying it directly -- and the row is re-synced from its state.
        # If something outside the store already rolled a model (a test
        # querying it directly), _roll_to is a no-op and the sync still
        # repairs the row.  No row is stale until ``time`` passes the
        # earliest end.
        if time > self._t1_min:
            t1 = self._t1
            stale = (t1 < time).nonzero()[0].tolist()
            self.segment_rolls += len(stale)
            models = self._models
            for i in stale:
                model = models[i]
                model._roll_to(time)
                self._sync_row(i, model)
            self._t1_min = float(t1.min())
        # One multiply + one add per coordinate: exactly the models'
        # ``origin + velocity * dt`` (IEEE multiplication and addition
        # commute bitwise, so ``dt * vx + ox`` == ``ox + vx * dt``).
        xy = self.xy
        np.subtract(time, self._t0, out=xy)
        xy *= self._velocity
        xy += self._origin
        # Reflective fold of the flagged coordinates, as ``_fold`` does it:
        # the remainder by the period, then the mirror of what lies past
        # the far border.
        flags = self._flags
        period = self._period
        flip = self._flip
        np.remainder(xy, period, out=xy, where=flags)
        np.greater(xy, self._upper, out=flip)
        flip &= flags
        np.subtract(period, xy, out=xy, where=flip)
        if self._custom:
            x = self._x
            y = self._y
            for i, model in self._custom:
                x[i], y[i] = model.position(time)
        self._time = time
        return self._x, self._y

    def position_of(self, host_id: int, time: float) -> Tuple[float, float]:
        """One host's position at ``time``, read from the batched epoch
        (a read at a new instant evaluates it, like :meth:`arrays_at`)."""
        if time == self._time:
            self.epoch_hits += 1
        else:
            self.arrays_at(time)
        return (float(self._x[host_id]), float(self._y[host_id]))

    # ------------------------------------------------------------- debug

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PositionStore(n={self.size}, t={self._time}, "
            f"epochs={self.batch_evals}, hits={self.epoch_hits})"
        )
