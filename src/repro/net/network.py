"""The simulated world: all hosts over one shared channel."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.mac.frames import DataFrame
from repro.metrics.collector import MetricsCollector
from repro.metrics.connectivity import reachable_rows
from repro.mobility.map import RectMap
from repro.mobility.models import MobilityModel, make_mobility
from repro.mobility.store import PositionStore
from repro.net.dupcache import DuplicateStore
from repro.net.host import HelloConfig, MobileHost
from repro.net.neighbors import NeighborStore
from repro.net.packets import BroadcastPacket, HelloPacket
from repro.phy.capture import CaptureModel
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.schemes.base import RebroadcastScheme
from repro.sim.engine import Scheduler
from repro.sim.randomness import RandomStreams

__all__ = ["Network"]


class Network:
    """Builds and owns the hosts, channel and connectivity snapshots.

    Host ids are ``0 .. num_hosts - 1``.  Each host gets independent random
    substreams for mobility, MAC backoff, scheme jitter and hello
    desynchronization, so comparisons across schemes with the same master
    seed share identical mobility traces.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        params: PhyParams,
        world: RectMap,
        streams: RandomStreams,
        num_hosts: int,
        scheme_factory: Callable[[], RebroadcastScheme],
        metrics: MetricsCollector,
        max_speed_kmh: float,
        mobility: str = "random-direction",
        hello_config: Optional[HelloConfig] = None,
        oracle_neighbors: bool = False,
        drop_predicate: Optional[Callable[[int, int], bool]] = None,
        mobility_factory: Optional[Callable[[int], "MobilityModel"]] = None,
        capture: Optional["CaptureModel"] = None,
        trace: Optional[Any] = None,
    ) -> None:
        if num_hosts < 1:
            raise ValueError(f"need at least one host, got {num_hosts}")
        self.scheduler = scheduler
        self.params = params
        self.world = world
        self.metrics = metrics
        self.trace = trace
        self.hosts: List[MobileHost] = []
        hello_config = hello_config or HelloConfig()

        # All mobility models are built before the channel so they can be
        # mirrored into the PositionStore.  Streams are created in host
        # order (mobility/0, mobility/1, ...).
        models: List[MobilityModel] = []
        for host_id in range(num_hosts):
            if mobility_factory is not None:
                # Tests and topology-controlled experiments supply exact
                # per-host mobility (e.g. static line / grid layouts).
                models.append(mobility_factory(host_id))
            else:
                models.append(
                    make_mobility(
                        mobility,
                        world,
                        streams.stream(f"mobility/{host_id}"),
                        max_speed_kmh,
                    )
                )

        #: Every host's position, batched per instant.
        self.position_store = PositionStore(models, world)
        self.channel = Channel(
            scheduler, params, self.position_store, drop_predicate,
            capture=capture, trace=trace,
        )
        self._seq = 0
        #: Every host's neighbor table (``neighbor_store.tables[host_id]``).
        self.neighbor_store = NeighborStore(
            num_hosts, default_interval=hello_config.interval
        )
        #: Every host's duplicate cache (``dup_store.caches[host_id]``).
        self.dup_store = DuplicateStore(num_hosts)

        for host_id in range(num_hosts):
            host = MobileHost(
                host_id=host_id,
                position_store=self.position_store,
                scheduler=scheduler,
                channel=self.channel,
                params=params,
                mobility=models[host_id],
                scheme=scheme_factory(),
                metrics=metrics,
                mac_rng=streams.stream(f"mac/{host_id}"),
                scheme_rng=streams.stream(f"scheme/{host_id}"),
                hello_rng=streams.stream(f"hello/{host_id}"),
                neighbor_table=self.neighbor_store.tables[host_id],
                dup_cache=self.dup_store.caches[host_id],
                hello_config=hello_config,
                oracle_neighbors=oracle_neighbors,
                trace=trace,
            )
            self.hosts.append(host)
        self.channel.bulk_delivery = self._absorb_hellos

    def _absorb_hellos(self, frame: Any, receivers: np.ndarray) -> bool:
        """The channel's bulk-delivery hook: a broadcast HELLO enters all
        its clean receivers' neighbor tables at once.

        It stands in for each receiver's host -> neighbor-table upcall
        (the channel counts the MAC ``frames_received`` bumps).  Any other
        frame is declined, for the upcalls.
        """
        if not isinstance(frame, DataFrame) or frame.dst is not None:
            return False
        hello = frame.payload
        if not isinstance(hello, HelloPacket):
            return False
        self.neighbor_store.absorb(hello, receivers, self.scheduler._now)
        return True

    # ------------------------------------------------------------- queries

    def positions(self) -> Dict[int, Tuple[float, float]]:
        """Snapshot of all host positions at the current time."""
        xs, ys = self.position_store.arrays_at(self.scheduler._now)
        return {
            h.host_id: (float(xs[h.host_id]), float(ys[h.host_id]))
            for h in self.hosts
        }

    def alive_ids(self) -> Set[int]:
        """Hosts whose radios are currently up."""
        return {h.host_id for h in self.hosts if h.alive}

    def reachable_from(self, source_id: int) -> Set[int]:
        """Alive hosts currently reachable from ``source_id`` via alive
        relays (source excluded).

        Crashed hosts are excluded both as destinations and as relays, so
        the ``e`` of RE measures what is *physically attainable* at
        initiation time -- the graceful-degradation denominator.  A source
        that is not an alive host raises ``KeyError``.
        """
        hosts = self.hosts
        if not (0 <= source_id < len(hosts) and hosts[source_id].alive):
            raise KeyError(f"source {source_id!r} is not an alive host")
        others = np.fromiter(
            (h.alive for h in hosts), dtype=bool, count=len(hosts)
        )
        others[source_id] = False
        x, y = self.position_store.arrays_at(self.scheduler._now)
        return set(reachable_rows(
            x, y, source_id, others.nonzero()[0], self.params.radio_radius
        ).tolist())

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Start periodic host activity (hello protocols)."""
        for host in self.hosts:
            host.start()

    def close(self) -> None:
        """Break the world's reference cycles at the end of a run, so
        that reference counting frees it once the caller lets go.

        The scheduler drops its pending events and their callbacks (the
        hello timers and MAC, scheme and fault events among them); the
        channel its listeners and bulk-delivery hook; each MAC its host
        and queue; each scheme its host and pending states; the neighbor
        store its list of tables.  The hosts, their MAC stats and
        neighbor tables, the channel's stats, the positions and the
        metrics stay readable.
        """
        self.scheduler.clear()
        self.channel.close()
        for host in self.hosts:
            host.mac.close()
            host.scheme.detach()
        self.neighbor_store.close()

    def crash_host(self, host_id: int) -> None:
        """Crash ``host_id`` (see :meth:`MobileHost.crash`)."""
        if not 0 <= host_id < len(self.hosts):
            raise ValueError(f"no such host {host_id}")
        self.hosts[host_id].crash()
        self.metrics.on_host_crash(host_id, self.scheduler.now)

    def recover_host(self, host_id: int) -> None:
        """Recover a crashed ``host_id`` with cold protocol state."""
        if not 0 <= host_id < len(self.hosts):
            raise ValueError(f"no such host {host_id}")
        self.hosts[host_id].recover()
        self.metrics.on_host_recover(host_id, self.scheduler.now)

    def initiate_broadcast(self, source_id: int) -> BroadcastPacket:
        """Originate a broadcast at ``source_id``, recording the snapshot.

        Takes the connectivity snapshot (the ``e`` of RE) at this instant,
        then hands the packet to the source's scheme.
        """
        if not 0 <= source_id < len(self.hosts):
            raise ValueError(f"no such host {source_id}")
        if not self.hosts[source_id].alive:
            raise ValueError(f"host {source_id} is crashed")
        reachable = self.reachable_from(source_id)
        self._seq += 1
        seq = self._seq
        source = self.hosts[source_id]
        key = (source_id, seq)
        self.metrics.on_originate(
            key,
            source_id,
            self.scheduler.now,
            len(reachable),
            reachable_set=frozenset(reachable),
        )
        if self.trace is not None:
            self.trace.records.append(
                (self.scheduler._now, "originate", source_id, seq, source_id)
            )
        packet = source.initiate_broadcast(seq)
        assert packet.key == key
        return packet
