"""Run one scenario end to end."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.recorder import TraceRecorder

from repro.experiments.config import ScenarioConfig
from repro.faults.injector import FaultInjector
from repro.metrics.collector import (
    FaultEventRecord,
    MetricsCollector,
    SimulationSummary,
)
from repro.mobility.map import RectMap
from repro.net.network import Network
from repro.perf import KernelPerf
from repro.phy.channel import ChannelStats
from repro.schemes import make_scheme
from repro.sim.engine import Scheduler
from repro.sim.randomness import RandomStreams
from repro.telemetry.resources import ResourceMonitor, ResourceProfile

__all__ = ["SimulationResult", "run_broadcast_simulation"]


@dataclass
class SimulationResult:
    """Output of one simulation run."""

    config: ScenarioConfig
    metrics: MetricsCollector
    stats: SimulationSummary
    channel_stats: ChannelStats
    end_time: float
    events_processed: int
    #: Total MAC backoff procedures across all hosts (contention proxy).
    backoffs_started: int = 0
    #: Executed fault events, in order (empty without a fault plan).
    fault_trace: List[FaultEventRecord] = field(default_factory=list)
    #: Broadcast requests skipped because the drawn source was down.
    broadcasts_skipped: int = 0
    #: Host wall-clock seconds this run took (build + simulate + summarize).
    #: Perf metadata: excluded from value equality.
    wall_time: float = field(default=0.0, compare=False)
    #: Whether this result was served from the on-disk result cache
    #: (see :mod:`repro.experiments.parallel`) instead of simulated.
    #: Provenance metadata: excluded from value equality.
    from_cache: bool = field(default=False, compare=False)
    #: Kernel counters collected at the end of the run (see
    #: :class:`repro.perf.KernelPerf`).  Perf metadata: excluded from
    #: value equality (the counters themselves are deterministic, but a
    #: cached result may predate the field).
    perf: Optional[KernelPerf] = field(default=None, compare=False)
    #: What the run cost the process (peak RSS, GC collections, wall
    #: time; see :class:`repro.telemetry.resources.ResourceProfile`).
    #: Host-machine noise: excluded from equality, and ``None`` on
    #: results unpickled from a pre-resources cache.
    resources: Optional["ResourceProfile"] = field(default=None, compare=False)

    @property
    def events_per_sec(self) -> float:
        """Scheduler events executed per wall-clock second (perf counter)."""
        if self.wall_time <= 0.0:
            return math.nan
        return self.events_processed / self.wall_time

    @property
    def re(self) -> float:
        """Mean reachability (NaN if undefined for every broadcast)."""
        return self.stats.reachability.mean if self.stats.reachability else math.nan

    @property
    def srb(self) -> float:
        """Mean saved-rebroadcast fraction."""
        return (
            self.stats.saved_rebroadcast.mean
            if self.stats.saved_rebroadcast
            else math.nan
        )

    @property
    def latency(self) -> float:
        """Mean broadcast latency in seconds."""
        return self.stats.latency.mean if self.stats.latency else math.nan

    @property
    def hellos(self) -> int:
        return self.stats.hello_packets_sent

    def summary(self) -> str:
        """One-line human-readable result."""
        line = (
            f"{self.config.label()}: RE={self.re:.3f} SRB={self.srb:.3f} "
            f"latency={self.latency * 1000:.1f}ms "
            f"broadcasts={self.stats.broadcasts} hellos={self.hellos}"
        )
        if self.fault_trace or self.broadcasts_skipped:
            line += (
                f" faults={len(self.fault_trace)}"
                f" skipped={self.broadcasts_skipped}"
            )
        return line


def run_broadcast_simulation(
    config: ScenarioConfig,
    network_hook: Optional[Callable[[Network], None]] = None,
    trace: Optional["TraceRecorder"] = None,
) -> SimulationResult:
    """Build the world from ``config``, drive traffic, and summarize.

    ``network_hook`` (if given) runs after network construction but before
    the simulation starts -- used by tests to inject faults or replace
    pieces.

    ``trace`` (an optional :class:`repro.trace.TraceRecorder`) arms the
    structured tracing instrumentation across every layer; with the
    recorder's ``sample_dt`` set, the time-series sampler runs too.  Tracing
    is not part of :class:`ScenarioConfig` on purpose: it never changes
    results, so cached-result digests stay comparable traced or not.

    Broadcast sources are picked uniformly at random per request and the
    interarrival time is uniform in [0, ``interarrival_max``], per the
    paper.  Traffic begins after a warm-up long enough for neighbor tables
    to populate.

    A run's memory barely grows with its broadcast count: before each
    request, every broadcast that can no longer change settles
    (:meth:`MetricsCollector.settle`) and leaves the duplicate caches,
    and the run ends with :meth:`Network.close`, so the world is freed
    when the result is returned.  Traced runs and
    ``config.store_reachable_sets`` keep every per-host record.
    """
    wall_start = time.perf_counter()
    monitor = ResourceMonitor().start()
    scheduler = Scheduler()
    streams = RandomStreams(config.seed)
    metrics = MetricsCollector(store_reachable_sets=config.store_reachable_sets)
    world = RectMap.square_units(config.map_units, config.unit_length)

    def scheme_factory():
        return make_scheme(config.scheme, **config.scheme_params)

    network = Network(
        scheduler=scheduler,
        params=config.phy,
        world=world,
        streams=streams,
        num_hosts=config.num_hosts,
        scheme_factory=scheme_factory,
        metrics=metrics,
        max_speed_kmh=config.resolved_max_speed_kmh,
        mobility=config.mobility,
        hello_config=config.hello,
        oracle_neighbors=config.oracle_neighbors,
        capture=config.capture,
        trace=trace,
    )
    if trace is not None:
        trace.meta.update(
            scheme=config.scheme,
            seed=config.seed,
            num_hosts=config.num_hosts,
            map_units=config.map_units,
        )
    if network_hook is not None:
        network_hook(network)
    network.start()

    hello_enabled = any(h.hello_enabled for h in network.hosts)
    warmup = config.resolved_warmup(hello_enabled)
    traffic_rng = streams.stream("traffic")

    # Every request is drawn here, before the run (the run's end and the
    # fault horizon need the last one); the scheduler holds only the next.
    times: List[float] = []
    sources: List[int] = []
    t = warmup
    for _ in range(config.num_broadcasts):
        t += traffic_rng.uniform(0.0, config.interarrival_max)
        times.append(t)
        sources.append(traffic_rng.randrange(config.num_hosts))
    end_time = t + config.drain
    settling = trace is None and not config.store_reachable_sets
    _schedule_request(network, zip(times, sources), settling)

    injector = None
    if config.faults is not None and not config.faults.is_empty():
        # Faults draw exclusively from a forked substream: mobility / MAC /
        # scheme streams see the same sequences with faults on or off.
        injector = FaultInjector(
            scheduler,
            network,
            config.faults,
            streams.fork("faults"),
            horizon=end_time,
            trace_recorder=trace,
        )
        injector.install()

    if trace is not None:
        trace.meta["end_time"] = end_time
        if trace.sample_dt is not None:
            from repro.trace.sampler import TimeSeriesSampler

            TimeSeriesSampler(scheduler, network, metrics, trace).start(
                end_time
            )

    scheduler.run(until=end_time)

    if settling:
        metrics.settle(end_time, final=True)
    stats = metrics.summarize(end_time)
    perf = KernelPerf.collect(scheduler, network)
    channel_stats = network.channel.stats
    network.close()
    wall_time = time.perf_counter() - wall_start
    return SimulationResult(
        config=config,
        metrics=metrics,
        stats=stats,
        channel_stats=channel_stats,
        end_time=end_time,
        events_processed=scheduler.events_processed,
        backoffs_started=perf.backoffs_started,
        fault_trace=list(injector.trace) if injector is not None else [],
        broadcasts_skipped=metrics.broadcasts_skipped,
        wall_time=wall_time,
        perf=perf,
        resources=monitor.finish(wall_time),
    )


def _schedule_request(
    network: Network, requests: Iterator[Tuple[float, int]], settling: bool
) -> None:
    """Put the next of ``requests``, ``(time, source)`` pairs, on the
    scheduler, if any is left."""
    upcoming = next(requests, None)
    if upcoming is not None:
        time_at, source_id = upcoming
        network.scheduler.schedule_at(
            time_at, _request, network, requests, source_id, settling
        )


def _request(
    network: Network,
    requests: Iterator[Tuple[float, int]],
    source_id: int,
    settling: bool,
) -> None:
    """One broadcast request from ``source_id``.  It schedules the next
    request first; with ``settling``, it settles what it can and drops
    the settled keys from the duplicate caches before originating."""
    _schedule_request(network, requests, settling)
    metrics = network.metrics
    now = network.scheduler.now
    if settling:
        network.dup_store.discard(metrics.settle(now))
    # With faults enabled the drawn source may be down; skip the request
    # (the draw itself already happened, so traffic timing is identical
    # across schemes and across fault plans).
    if not network.hosts[source_id].alive:
        metrics.on_broadcast_skipped(source_id, now)
        return
    network.initiate_broadcast(source_id)
