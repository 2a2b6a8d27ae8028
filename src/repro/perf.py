"""Always-on kernel performance counters and opt-in profiling.

Two layers, matching how the paper's experiments are actually debugged:

- :class:`KernelPerf` -- near-zero-overhead per-subsystem counters that
  every simulation run collects for free.  All of them are *already
  maintained* by the hot paths (the scheduler's insertion sequence, the
  channel's :class:`~repro.phy.channel.ChannelStats`, each MAC's
  :class:`~repro.mac.csma.MacStats`, the
  :class:`~repro.mobility.store.PositionStore`'s epoch-cache tallies, each
  :class:`~repro.net.neighbors.NeighborTable`'s update/expiry tallies in
  the network's :class:`~repro.net.neighbors.NeighborStore`);
  :meth:`KernelPerf.collect` merely reads them out once at the
  end of a run, so the simulation itself pays nothing beyond the integer
  bumps it was doing anyway.
- :func:`profiled` / :func:`format_profile` -- an opt-in ``cProfile``
  wrapper behind the CLI's ``--profile [N]`` flag, for when the counters
  say *what* is slow and you need to know *where*.

Counter semantics
-----------------
``events_scheduled`` counts every event ever pushed on the heap;
``events_processed`` counts the callbacks that actually ran;
``events_cancelled`` the pushed events withdrawn before firing (MAC
backoff freezes, scheme S5 inhibits); ``heap_compactions`` how many times
the scheduler reclaimed cancelled husks in bulk.  A MAC access waiting
in the channel's contention heap (:mod:`repro.mac.csma`) is counted only
once it is pushed, when it becomes the earliest live entry, so an access
a freeze withdraws before that counts in neither ``events_scheduled``
nor ``events_cancelled``.  A medium edge marks the access events of all
the MACs it freezes cancelled in place and reports them to the scheduler
at once, so compaction is checked once per edge, not once per cancelled
event: ``events_cancelled`` is unchanged by that, ``heap_compactions``
can differ from per-event checking.
``events_pending_final``/``cancelled_pending_final`` are the heap residue
(entries left on the heap, and how many of those are cancelled husks) when
the run ended -- including runs that quiesce early under faults -- closing
the disposition invariant ``scheduled == processed + cancelled +
(pending_final - cancelled_pending_final)``.  ``pos_hits``/``pos_misses``
describe position reads through the
:class:`~repro.mobility.store.PositionStore` epoch cache (a hit is served
from the arrays already at the current timestamp; a miss is a batched
all-host evaluation, whether one host or all were asked for, so
``pos_batch_evals`` equals ``pos_misses``), and
``batch_scans``/``vector_candidates`` the vectorized receiver scans and
the total in-range ids they produced.
``hello_updates``/``neighbor_expirations`` count HELLO-driven neighbor
table writes (one per receiving table, whether the HELLO was absorbed in
bulk or through one host's upcall) and the entries purges dropped, summed
over the tables as they stand when the run ends: a crash wipes the
crashed host's table and with it that host's two counts so far, so they
restart from zero at each crash.  ``frames_received`` counts every frame
a MAC took in, HELLOs absorbed in bulk included; a crash keeps it.
Channel and MAC counters mirror the fields of the same name on
``ChannelStats`` / ``MacStats`` (MAC counters are summed across hosts).
"""

from __future__ import annotations

import cProfile
import io
import pstats
from contextlib import contextmanager
from typing import Any, Dict, Iterator

__all__ = ["KernelPerf", "profiled", "format_profile"]


class KernelPerf:
    """Per-subsystem kernel counters for one simulation run."""

    __slots__ = (
        # scheduler
        "events_scheduled", "events_processed", "events_cancelled",
        "heap_compactions", "events_pending_final", "cancelled_pending_final",
        # channel
        "transmissions", "deliveries", "collisions", "deaf_misses",
        "batch_scans", "vector_candidates",
        # MAC (summed across hosts)
        "frames_sent", "frames_received", "frames_corrupted",
        "backoffs_started",
        # position reads through the PositionStore epoch cache
        "pos_hits", "pos_misses", "pos_batch_evals",
        # HELLO / neighbor bookkeeping
        "hello_updates", "neighbor_expirations",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    # ------------------------------------------------------------ build

    @classmethod
    def collect(cls, scheduler: Any, network: Any) -> "KernelPerf":
        """Read the counters the kernel maintained during a run.

        ``scheduler`` is the run's :class:`~repro.sim.engine.Scheduler`;
        ``network`` the :class:`~repro.net.network.Network` (its channel,
        hosts, MACs and neighbor tables are walked once).
        """
        perf = cls()
        perf.events_scheduled = scheduler.events_scheduled
        perf.events_processed = scheduler.events_processed
        perf.events_cancelled = scheduler.events_cancelled
        perf.heap_compactions = scheduler.compactions
        # Heap residue at collection time.  A run that quiesces early (e.g.
        # every host crashed) still reports these: collect() runs after
        # Scheduler.run() returns regardless of why the heap drained, so
        # events_scheduled == events_processed + events_cancelled
        #                     + (events_pending_final - cancelled_pending_final)
        # holds as the disposition invariant for every run.
        perf.events_pending_final = scheduler.pending
        perf.cancelled_pending_final = scheduler.cancelled_pending

        # Reading the channel's stats folds its array-accumulated tallies
        # (per-host rx airtime, MAC corrupted counts) into their dict and
        # MacStats homes, so it comes before the MAC counters below.
        ch = network.channel.stats
        perf.transmissions = ch.transmissions
        perf.deliveries = ch.deliveries
        perf.collisions = ch.collisions
        perf.deaf_misses = ch.deaf_misses
        perf.batch_scans = ch.batch_scans
        perf.vector_candidates = ch.vector_candidates

        store = network.position_store
        perf.pos_hits = store.epoch_hits
        perf.pos_misses = store.batch_evals
        perf.pos_batch_evals = store.batch_evals

        frames_sent = frames_received = frames_corrupted = 0
        backoffs = hello_updates = expirations = 0
        for host in network.hosts:
            mac = host.mac.stats
            frames_sent += mac.frames_sent
            frames_received += mac.frames_received
            frames_corrupted += mac.frames_corrupted
            backoffs += mac.backoffs_started
            table = host.neighbor_table
            hello_updates += table.hello_updates
            expirations += table.expirations
        perf.frames_sent = frames_sent
        perf.frames_received = frames_received
        perf.frames_corrupted = frames_corrupted
        perf.backoffs_started = backoffs
        perf.hello_updates = hello_updates
        perf.neighbor_expirations = expirations
        return perf

    # ------------------------------------------------------------- ops

    def merge(self, other: "KernelPerf") -> "KernelPerf":
        """Add ``other``'s counters into this one (aggregation across
        runs); returns ``self`` for chaining."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def pos_hit_rate(self) -> float:
        """Epoch-cache hits over all position queries (0.0 if none)."""
        queries = self.pos_hits + self.pos_misses
        return self.pos_hits / queries if queries else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelPerf):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__
        )

    __hash__ = None  # mutable counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)}" for name in self.__slots__
        )
        return f"KernelPerf({fields})"


@contextmanager
def profiled() -> Iterator[cProfile.Profile]:
    """Profile the ``with`` body; yields the (enabled) profile object.

    The profile is disabled on exit and can be rendered with
    :func:`format_profile`::

        with profiled() as prof:
            run_broadcast_simulation(config)
        print(format_profile(prof, top_n=25))
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        yield profile
    finally:
        profile.disable()


def format_profile(profile: cProfile.Profile, top_n: int = 25) -> str:
    """Render the ``top_n`` functions by cumulative then internal time."""
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    buffer = io.StringIO()
    stats = pstats.Stats(profile, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top_n)
    stats.sort_stats("tottime").print_stats(top_n)
    return buffer.getvalue()
