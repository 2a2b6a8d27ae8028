"""The mobile host: mobility + MAC + scheme + hello protocol + metrics taps.

A :class:`MobileHost` implements two interfaces at once:

- :class:`repro.mac.csma.MacReceiver` -- frames coming up from the MAC are
  dispatched by type (HELLO -> neighbor table, broadcast -> duplicate check
  then scheme S1/S4).  Untraced runs skip this upcall for HELLOs: the
  network enters each HELLO into all its receivers' tables at once.
- :class:`repro.schemes.base.SchemeHost` -- services the scheme calls down
  into (position, neighbor count, MAC submission, inhibit recording).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.mac.csma import CsmaCaMac, MacFrameHandle
from repro.metrics.collector import MetricsCollector
from repro.mobility.models import MobilityModel
from repro.mobility.store import PositionStore
from repro.net.dupcache import DuplicateCache
from repro.net.neighbors import NeighborTable, dynamic_hello_interval
from repro.net.packets import BroadcastPacket, HelloPacket, PacketKey
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.schemes.base import RebroadcastScheme
from repro.sim.engine import Scheduler

__all__ = ["HelloConfig", "MobileHost"]


@dataclass(frozen=True)
class HelloConfig:
    """Hello-protocol settings.

    ``enabled=None`` means "whatever the scheme needs" (schemes declare
    ``needs_hello``).  With ``dynamic=True`` the interval follows the
    paper's DHI formula between ``hi_min`` and ``hi_max``; otherwise the
    fixed ``interval`` is used.  Paper defaults: interval 1 s, and for DHI
    ``nv_max = 0.02``, ``hi_min = 1 s``, ``hi_max = 10 s``.
    """

    enabled: Optional[bool] = None
    interval: float = 1.0
    dynamic: bool = False
    nv_max: float = 0.02
    hi_min: float = 1.0
    hi_max: float = 10.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"hello interval must be > 0, got {self.interval}")
        if self.dynamic and not 0 < self.hi_min <= self.hi_max:
            raise ValueError(
                f"need 0 < hi_min <= hi_max, got {self.hi_min}..{self.hi_max}"
            )
        if self.dynamic and not self.nv_max > 0:
            raise ValueError(f"nv_max must be > 0, got {self.nv_max}")

    def resolved_enabled(self, scheme: RebroadcastScheme) -> bool:
        if self.enabled is not None:
            return self.enabled
        return scheme.needs_hello


class MobileHost:
    """One cooperating mobile host."""

    #: This host's ``on_frame_corrupted`` is a no-op (see below), so the
    #: MAC skips the per-garbled-frame upcall entirely.
    handles_corrupted_frames = False

    __slots__ = (
        "host_id", "scheduler", "channel", "params", "mobility", "scheme",
        "metrics", "scheme_rng", "_hello_rng", "hello_config",
        "oracle_neighbors", "slot_time", "dup_cache", "neighbor_table", "mac",
        "hello_enabled", "_hello_started", "_hello_event",
        "_hello_muted_until", "alive", "_airtime_cache", "trace",
        "position_store",
    )

    def __init__(
        self,
        host_id: int,
        scheduler: Scheduler,
        channel: Channel,
        params: PhyParams,
        mobility: MobilityModel,
        position_store: PositionStore,
        scheme: RebroadcastScheme,
        metrics: MetricsCollector,
        mac_rng: random.Random,
        scheme_rng: random.Random,
        hello_rng: random.Random,
        neighbor_table: NeighborTable,
        dup_cache: DuplicateCache,
        hello_config: Optional[HelloConfig] = None,
        oracle_neighbors: bool = False,
        trace: Optional[Any] = None,
    ) -> None:
        self.host_id = host_id
        self.scheduler = scheduler
        self.channel = channel
        self.params = params
        self.mobility = mobility
        self.scheme = scheme
        self.metrics = metrics
        self.scheme_rng = scheme_rng
        self._hello_rng = hello_rng
        self.hello_config = hello_config or HelloConfig()
        self.oracle_neighbors = oracle_neighbors
        #: Optional :class:`repro.trace.TraceRecorder`; ``None`` keeps
        #: every instrumentation site on this host's paths inert.
        self.trace = trace

        self.slot_time = params.slot_time
        #: This host's handle on the network's
        #: :class:`~repro.net.dupcache.DuplicateStore`.
        self.dup_cache = dup_cache
        #: This host's handle on the network's
        #: :class:`~repro.net.neighbors.NeighborStore`.
        self.neighbor_table = neighbor_table
        self.mac = CsmaCaMac(
            host_id, scheduler, channel, params, mac_rng, self, trace=trace
        )
        self.hello_enabled = self.hello_config.resolved_enabled(scheme)
        self._hello_started = False
        self._hello_event = None
        self._hello_muted_until = 0.0
        self.alive = True

        #: The network-wide batched positions :meth:`position` reads
        #: through (epoch cache, then the model itself).
        self.position_store = position_store
        self._airtime_cache: dict = {}

        scheme.attach(self)

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Begin periodic activity (the hello protocol, if enabled).

        The first HELLO is desynchronized with a uniform offset in
        [0, interval) so 100 hosts do not all beacon at t = 0.
        """
        if self.hello_enabled and not self._hello_started:
            self._hello_started = True
            offset = self._hello_rng.uniform(0.0, self.hello_config.interval)
            self._hello_event = self.scheduler.schedule(offset, self._send_hello)

    def crash(self) -> None:
        """Go dark: radio off, all volatile protocol state lost.

        The MAC aborts any in-flight frame, flushes its queue and detaches
        from the channel; the hello timer stops; the neighbor table,
        duplicate cache and scheme state are wiped so a later
        :meth:`recover` comes back cold.  Mobility continues -- it is the
        radio that dies, not the vehicle carrying it.
        """
        if not self.alive:
            raise ValueError(f"host {self.host_id} is already crashed")
        self.alive = False
        self.mac.shutdown()
        if self._hello_event is not None:
            self._hello_event.cancel()
            self._hello_event = None
        self._hello_started = False
        self.neighbor_table.reset()
        self.dup_cache.clear()
        self.scheme.reset()

    def recover(self) -> None:
        """Power back on after :meth:`crash`, with cold tables.

        The radio re-attaches to the channel and the hello protocol restarts
        with a fresh desynchronization offset; one- and two-hop knowledge
        must be relearned from scratch.
        """
        if self.alive:
            raise ValueError(f"host {self.host_id} is not crashed")
        self.alive = True
        self.mac.restart()
        self.start()

    def suppress_hellos(self, until: float) -> None:
        """Mute this host's HELLO transmissions until time ``until``.

        The hello timer keeps ticking (so the cadence is undisturbed once
        the mute lifts) but no packet goes on the air -- neighbors' tables
        go stale and age this host out after their timeout.
        """
        self._hello_muted_until = max(self._hello_muted_until, until)

    # ------------------------------------------------------- SchemeHost API

    def position(self) -> Tuple[float, float]:
        return self.position_store.position_of(
            self.host_id, self.scheduler._now
        )

    def radio_radius(self) -> float:
        return self.params.radio_radius

    def neighbor_count(self) -> int:
        if self.oracle_neighbors:
            return len(self.channel.neighbors_in_range(self.host_id))
        return self.neighbor_table.neighbor_count(self.scheduler.now)

    def submit_rebroadcast(
        self, packet: BroadcastPacket, on_transmit_start
    ) -> MacFrameHandle:
        key = packet.key
        is_origin = packet.source_id == self.host_id and packet.hops == 0
        airtime = self._airtime_cache.get(packet.size_bytes)
        if airtime is None:
            airtime = self._airtime_cache[packet.size_bytes] = (
                self.params.airtime(packet.size_bytes)
            )

        def _started() -> None:
            end = self.scheduler.now + airtime
            if is_origin:
                self.scheduler.schedule(
                    airtime, self.metrics.on_source_tx_end, key, end
                )
            else:
                self.metrics.on_rebroadcast_start(key, self.host_id, self.scheduler.now)
                self.scheduler.schedule(
                    airtime, self.metrics.on_rebroadcast_end, key, self.host_id, end
                )
            if on_transmit_start is not None:
                on_transmit_start()

        return self.mac.send(packet, packet.size_bytes, _started)

    def record_inhibit(self, key: PacketKey) -> None:
        self.metrics.on_inhibit(key, self.host_id, self.scheduler.now)

    # ------------------------------------------------------------ broadcast

    def initiate_broadcast(self, seq: int) -> BroadcastPacket:
        """Originate a new broadcast (S0, so to speak).

        The caller (:class:`repro.net.network.Network`) is responsible for
        recording the connectivity snapshot first.
        """
        packet = BroadcastPacket(
            source_id=self.host_id,
            seq=seq,
            origin_time=self.scheduler.now,
            tx_id=self.host_id,
            tx_position=self.position() if self.scheme.needs_position else None,
            hops=0,
            size_bytes=self.params.broadcast_payload_bytes,
        )
        self.dup_cache.add(packet.key)
        self.scheme.on_originate(packet)
        return packet

    # -------------------------------------------------------- MacReceiver

    def on_frame_received(self, frame: Any, sender_id: int) -> None:
        if isinstance(frame, HelloPacket):
            self.neighbor_table.update_from_hello(frame, self.scheduler.now)
            return
        if isinstance(frame, BroadcastPacket):
            trace = self.trace
            key = frame.key
            if self.dup_cache.add(key):
                if trace is not None:
                    trace.records.append((
                        self.scheduler._now, "receive", frame.source_id,
                        frame.seq, self.host_id, sender_id,
                    ))
                self.metrics.on_receive(key, self.host_id, self.scheduler.now)
                self.scheme.on_first_hear(frame, sender_id, frame.tx_position)
            else:
                if trace is not None:
                    trace.records.append((
                        self.scheduler._now, "dup", frame.source_id,
                        frame.seq, self.host_id, sender_id,
                    ))
                self.scheme.on_hear_again(frame, sender_id, frame.tx_position)
            return
        raise TypeError(f"host {self.host_id} received unknown frame {frame!r}")

    def on_frame_corrupted(self, frame: Any, sender_id: int) -> None:
        # A garbled frame carries no decodable information; CSMA hosts only
        # observe the channel occupancy, which the MAC already accounted for.
        pass

    # -------------------------------------------------------------- hello

    def _send_hello(self) -> None:
        now = self.scheduler.now
        if now < self._hello_muted_until:
            # Fault injection: HELLO suppressed; keep the timer ticking.
            self._hello_event = self.scheduler.schedule(
                self.hello_config.interval, self._send_hello
            )
            return
        self.neighbor_table.purge(now)
        neighbor_ids = None
        if self.scheme.needs_two_hop_hello:
            neighbor_ids = self.neighbor_table.neighbor_frozenset()
        if self.hello_config.dynamic:
            interval = dynamic_hello_interval(
                self.neighbor_table.variation(now),
                nv_max=self.hello_config.nv_max,
                hi_min=self.hello_config.hi_min,
                hi_max=self.hello_config.hi_max,
            )
            announced: Optional[float] = interval
        else:
            interval = self.hello_config.interval
            announced = None
        hello = HelloPacket(
            sender_id=self.host_id,
            neighbor_ids=neighbor_ids,
            hello_interval=announced,
        )
        self.mac.send(hello, hello.size_bytes)
        self.metrics.on_hello_sent(self.host_id)
        self._hello_event = self.scheduler.schedule(interval, self._send_hello)
