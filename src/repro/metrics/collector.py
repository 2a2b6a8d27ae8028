"""Per-broadcast records and simulation-wide aggregation.

Settlement
----------
A broadcast's :class:`BroadcastRecord` keeps every receiver's first-hear
and decision instant: about 18 KiB per broadcast on 100 hosts.  Once a
broadcast can no longer change, :meth:`MetricsCollector.settle` swaps
the record, in the same slot of ``records``, for a
:class:`SettledBroadcast`: the counts and the latency the summaries
read, the same numbers as from the record.  That is when the source's
frame has ended, every host that received the broadcast has decided
(rebroadcast finished, or inhibited), and all of those instants lie
strictly before ``now``.  Then no copy can still arrive: a copy is only
ever sent by the source or by a receiver that has not yet decided, and
a frame's deliveries run at its end, no later than its sender's
decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Union

from repro.net.packets import PacketKey

__all__ = [
    "BroadcastRecord",
    "FaultEventRecord",
    "MetricsCollector",
    "SettledBroadcast",
    "SummaryStat",
    "SimulationSummary",
    "WindowSummary",
]


class _Outcome:
    """RE and SRB from a broadcast's counts (shared by both forms)."""

    __slots__ = ()

    @property
    def reachability(self) -> Optional[float]:
        """RE = r / e, or ``None`` when the source was isolated (e = 0)."""
        if self.reachable_count == 0:
            return None
        return self.received_count / self.reachable_count

    @property
    def saved_rebroadcast(self) -> Optional[float]:
        """SRB = (r - t) / r, or ``None`` when nothing was received."""
        if self.received_count == 0:
            return None
        return (
            self.received_count - self.rebroadcast_count
        ) / self.received_count


@dataclass
class BroadcastRecord(_Outcome):
    """Everything observed about one logical broadcast."""

    key: PacketKey
    source_id: int
    origin_time: float
    reachable_count: int  # e: hosts reachable from the source at initiation
    received_times: Dict[int, float] = field(default_factory=dict)
    rebroadcasters: Set[int] = field(default_factory=set)
    decision_times: Dict[int, float] = field(default_factory=dict)
    source_tx_end: Optional[float] = None
    #: Present only when the collector was built with
    #: ``store_reachable_sets=True`` (costs memory on long runs).
    reachable_set: Optional[FrozenSet[int]] = None

    @property
    def received_count(self) -> int:
        """r: non-source hosts that successfully received the packet."""
        return len(self.received_times)

    @property
    def rebroadcast_count(self) -> int:
        """t: non-source hosts that actually put a rebroadcast on the air."""
        return len(self.rebroadcasters)

    def latency(self, fallback_end: Optional[float] = None) -> Optional[float]:
        """Initiation to the last rebroadcast-finish / inhibit decision.

        Receiving hosts still undecided (possible only if the simulation was
        cut off) are charged ``fallback_end``.  Returns ``None`` when nobody
        received the packet.
        """
        if self.received_count == 0:
            return None
        last = self.source_tx_end if self.source_tx_end is not None else self.origin_time
        for host_id in self.received_times:
            decided = self.decision_times.get(host_id)
            if decided is None:
                decided = fallback_end if fallback_end is not None else self.origin_time
            last = max(last, decided)
        return last - self.origin_time

    def settled_before(self, now: float) -> bool:
        """Whether no copy of this broadcast can arrive any more: the
        source's frame has ended, every receiver has decided, and all of
        those instants lie strictly before ``now`` (so every event at
        them has run)."""
        tx_end = self.source_tx_end
        if tx_end is None or tx_end >= now:
            return False
        decided = self.decision_times
        if not decided.keys() >= self.received_times.keys():
            return False
        return not decided or max(decided.values()) < now


@dataclass
class SettledBroadcast(_Outcome):
    """A broadcast's final outcome, once its record can no longer change:
    what the summaries read, about 250 B against the record's 18 KiB.

    Its latency was fixed when it settled: a broadcast settled at the
    run's end charged its undecided receivers that end.
    """

    __slots__ = (
        "key", "source_id", "origin_time", "reachable_count",
        "received_count", "rebroadcast_count", "final_latency",
    )

    key: PacketKey
    source_id: int
    origin_time: float
    reachable_count: int
    received_count: int
    rebroadcast_count: int
    final_latency: Optional[float]

    @classmethod
    def of(
        cls, record: BroadcastRecord, fallback_end: Optional[float] = None
    ) -> "SettledBroadcast":
        return cls(
            record.key, record.source_id, record.origin_time,
            record.reachable_count, record.received_count,
            record.rebroadcast_count, record.latency(fallback_end),
        )

    def latency(self, fallback_end: Optional[float] = None) -> Optional[float]:
        """:attr:`final_latency` (``fallback_end`` is not read: every
        receiver had decided, or was charged the run's end)."""
        return self.final_latency


@dataclass
class SummaryStat:
    """Mean / spread / count of one metric over all broadcasts."""

    mean: float
    std: float
    count: int

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        if self.count <= 1:
            return 0.0
        return self.std / math.sqrt(self.count)

    @classmethod
    def of(cls, values: List[float]) -> Optional["SummaryStat"]:
        if not values:
            return None
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
        return cls(mean=mean, std=math.sqrt(var), count=n)


@dataclass
class SimulationSummary:
    """Aggregated RE / SRB / latency for one simulation run."""

    reachability: Optional[SummaryStat]
    saved_rebroadcast: Optional[SummaryStat]
    latency: Optional[SummaryStat]
    broadcasts: int
    hello_packets_sent: int

    def row(self) -> Dict[str, float]:
        """Flat dict for result tables (NaN for undefined metrics)."""
        return {
            "re": self.reachability.mean if self.reachability else math.nan,
            "srb": self.saved_rebroadcast.mean if self.saved_rebroadcast else math.nan,
            "latency": self.latency.mean if self.latency else math.nan,
            "broadcasts": self.broadcasts,
            "hellos": self.hello_packets_sent,
        }


@dataclass(frozen=True)
class FaultEventRecord:
    """One executed fault event, for the deterministic fault trace."""

    time: float
    kind: str  # "crash" | "recover" | "hello-mute" | "skipped-broadcast"
    host_id: int


@dataclass
class WindowSummary:
    """RE / SRB aggregated over broadcasts originated in ``[start, end)``."""

    start: float
    end: float
    reachability: Optional[SummaryStat]
    saved_rebroadcast: Optional[SummaryStat]
    broadcasts: int

    def row(self) -> Dict[str, float]:
        return {
            "start": self.start,
            "end": self.end,
            "re": self.reachability.mean if self.reachability else math.nan,
            "srb": self.saved_rebroadcast.mean if self.saved_rebroadcast else math.nan,
            "broadcasts": self.broadcasts,
        }


class MetricsCollector:
    """Receives events from hosts and produces the simulation summary."""

    def __init__(self, store_reachable_sets: bool = False) -> None:
        #: Every broadcast in origination order: its record, or its
        #: outcome once settled (see :meth:`settle`).
        self.records: Dict[PacketKey, Union[BroadcastRecord, SettledBroadcast]] = {}
        # The records not yet settled, in origination order.
        self._open: Dict[PacketKey, BroadcastRecord] = {}
        self.hello_packets_sent = 0
        self.hello_counts_by_host: Dict[int, int] = {}
        self.store_reachable_sets = store_reachable_sets
        #: Executed fault events in time order (crashes, recoveries, mutes,
        #: broadcasts skipped because the drawn source was down).
        self.fault_events: List[FaultEventRecord] = []
        self.broadcasts_skipped = 0

    def __eq__(self, other: object) -> bool:
        """Value equality over everything recorded.

        Lets a :class:`~repro.experiments.runner.SimulationResult` that
        round-tripped through the on-disk result cache compare equal to the
        original.
        """
        if not isinstance(other, MetricsCollector):
            return NotImplemented
        return (
            self.records == other.records
            and self.hello_packets_sent == other.hello_packets_sent
            and self.hello_counts_by_host == other.hello_counts_by_host
            and self.store_reachable_sets == other.store_reachable_sets
            and self.fault_events == other.fault_events
            and self.broadcasts_skipped == other.broadcasts_skipped
        )

    __hash__ = None  # mutable container; identity hashing would be a trap

    # ----------------------------------------------------------- events

    def on_originate(
        self,
        key: PacketKey,
        source_id: int,
        time: float,
        reachable_count: int,
        reachable_set: Optional[FrozenSet[int]] = None,
    ) -> None:
        if key in self.records:
            raise ValueError(f"duplicate broadcast key {key}")
        self.records[key] = self._open[key] = BroadcastRecord(
            key=key,
            source_id=source_id,
            origin_time=time,
            reachable_count=reachable_count,
            reachable_set=(
                reachable_set if self.store_reachable_sets else None
            ),
        )

    def _open_record(self, key: PacketKey) -> Optional[BroadcastRecord]:
        """The record an update of ``key`` goes to: ``None`` for a key
        this collector never originated (the update is ignored).  A key
        already settled raises: the settlement rule would be wrong."""
        record = self._open.get(key)
        if record is None and key in self.records:
            raise RuntimeError(
                f"broadcast {key} was settled but is still being updated"
            )
        return record

    def on_source_tx_end(self, key: PacketKey, time: float) -> None:
        record = self._open_record(key)
        if record is not None:
            record.source_tx_end = time

    def on_receive(self, key: PacketKey, host_id: int, time: float) -> None:
        record = self._open_record(key)
        if record is not None:
            record.received_times.setdefault(host_id, time)

    def on_rebroadcast_start(self, key: PacketKey, host_id: int, time: float) -> None:
        record = self._open_record(key)
        if record is not None:
            record.rebroadcasters.add(host_id)

    def on_rebroadcast_end(self, key: PacketKey, host_id: int, time: float) -> None:
        record = self._open_record(key)
        if record is not None:
            record.decision_times[host_id] = time

    def on_inhibit(self, key: PacketKey, host_id: int, time: float) -> None:
        record = self._open_record(key)
        if record is not None:
            record.decision_times.setdefault(host_id, time)

    def on_hello_sent(self, host_id: int) -> None:
        self.hello_packets_sent += 1
        self.hello_counts_by_host[host_id] = (
            self.hello_counts_by_host.get(host_id, 0) + 1
        )

    # ---------------------------------------------------- fault events

    def on_host_crash(self, host_id: int, time: float) -> None:
        self.fault_events.append(FaultEventRecord(time, "crash", host_id))

    def on_host_recover(self, host_id: int, time: float) -> None:
        self.fault_events.append(FaultEventRecord(time, "recover", host_id))

    def on_hello_mute(self, host_id: int, time: float) -> None:
        self.fault_events.append(FaultEventRecord(time, "hello-mute", host_id))

    def on_broadcast_skipped(self, source_id: int, time: float) -> None:
        """The traffic generator drew a source that is currently down."""
        self.broadcasts_skipped += 1
        self.fault_events.append(
            FaultEventRecord(time, "skipped-broadcast", source_id)
        )

    # -------------------------------------------------------- settlement

    def settle(self, now: float, final: bool = False) -> List[PacketKey]:
        """Swap each record that can no longer change (see the module
        docstring) for its :class:`SettledBroadcast`, in place, and
        return the keys settled, in origination order.

        ``final``: the run has ended at ``now``, so every open record
        settles, and receivers that never decided are charged ``now``.
        """
        records = self.records
        settled = []
        for key, record in self._open.items():
            if final:
                records[key] = SettledBroadcast.of(record, now)
            elif record.settled_before(now):
                records[key] = SettledBroadcast.of(record)
            else:
                continue
            settled.append(key)
        for key in settled:
            del self._open[key]
        return settled

    # ------------------------------------------------------- aggregation

    def summarize(self, end_time: Optional[float] = None) -> SimulationSummary:
        """Aggregate every recorded broadcast into a summary."""
        res, srbs, lats = [], [], []
        for record in self.records.values():
            re = record.reachability
            if re is not None:
                res.append(re)
            srb = record.saved_rebroadcast
            if srb is not None:
                srbs.append(srb)
            lat = record.latency(fallback_end=end_time)
            if lat is not None:
                lats.append(lat)
        return SimulationSummary(
            reachability=SummaryStat.of(res),
            saved_rebroadcast=SummaryStat.of(srbs),
            latency=SummaryStat.of(lats),
            broadcasts=len(self.records),
            hello_packets_sent=self.hello_packets_sent,
        )

    # ------------------------------------- graceful-degradation metrics

    def window_summary(
        self, boundaries: List[float], end_time: float
    ) -> List[WindowSummary]:
        """RE / SRB per time window, split at ``boundaries``.

        Broadcasts are bucketed by origin time into the half-open windows
        ``[0, b0), [b0, b1), ..., [b_last, end_time)``.  Used to read how
        the schemes behave before / during / after a fault wave.
        """
        cuts = sorted(set(b for b in boundaries if 0.0 < b < end_time))
        edges = [0.0] + cuts + [end_time]
        out = []
        for start, end in zip(edges[:-1], edges[1:]):
            res, srbs, count = [], [], 0
            for record in self.records.values():
                if not start <= record.origin_time < end:
                    continue
                count += 1
                re = record.reachability
                if re is not None:
                    res.append(re)
                srb = record.saved_rebroadcast
                if srb is not None:
                    srbs.append(srb)
            out.append(
                WindowSummary(
                    start=start,
                    end=end,
                    reachability=SummaryStat.of(res),
                    saved_rebroadcast=SummaryStat.of(srbs),
                    broadcasts=count,
                )
            )
        return out

    def fault_window_summary(self, end_time: float) -> List[WindowSummary]:
        """Windows cut at every recorded crash / recover event."""
        boundaries = [
            ev.time for ev in self.fault_events
            if ev.kind in ("crash", "recover")
        ]
        return self.window_summary(boundaries, end_time)

    def time_to_recover(
        self,
        after: float,
        baseline_re: float,
        fraction: float = 0.9,
        consecutive: int = 1,
    ) -> Optional[float]:
        """Seconds from ``after`` until RE first returns to
        ``fraction * baseline_re`` for ``consecutive`` broadcasts in a row.

        The standard time-to-recover probe after a crash wave: take the
        pre-fault mean RE as the baseline, pass the recovery instant as
        ``after``, and read how long the degraded neighbor knowledge takes
        to heal.  Returns ``None`` if RE never recovers in the record.
        """
        if consecutive < 1:
            raise ValueError(f"consecutive must be >= 1, got {consecutive}")
        target = fraction * baseline_re
        eligible = sorted(
            (r for r in self.records.values()
             if r.origin_time >= after and r.reachability is not None),
            key=lambda r: r.origin_time,
        )
        run = 0
        run_start: Optional[float] = None
        for record in eligible:
            if record.reachability >= target:
                run += 1
                if run_start is None:
                    run_start = record.origin_time
                if run >= consecutive:
                    return run_start - after
            else:
                run = 0
                run_start = None
        return None
