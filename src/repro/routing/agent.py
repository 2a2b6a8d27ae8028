"""The per-host routing agent (AODV-lite).

Protocol summary:

- **Discovery**: the originator floods a :class:`RouteRequest` through its
  host's configured broadcast scheme.  Every host that first-hears the RREQ
  learns a *reverse route* (next hop = the neighbor it heard the copy
  from).  The target answers with a unicast :class:`RouteReply`; each relay
  of the RREP installs a *forward route* to the target and passes the RREP
  one hop toward the originator along its reverse route.
- **Forwarding**: data packets hop through the acknowledged unicast MAC;
  a per-hop ACK failure invalidates every route through that next hop.
- **Re-discovery**: data with no route is queued; discovery retries up to
  ``max_discovery_attempts`` with timeout ``discovery_timeout`` before the
  queued packets are failed.

End-to-end semantics: the originator's ``on_result`` callback reports the
*local* outcome (handed to the first hop and ACKed, or discovery/forward
failure).  True end-to-end delivery is observable at the destination agent
(``stats.data_delivered`` / ``received``), which is what the tests and
benches aggregate -- a MANET source genuinely cannot know more without an
end-to-end acknowledgement layer, which is out of scope here as it is in
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.host import MobileHost
from repro.net.network import Network
from repro.net.packets import BroadcastPacket
from repro.routing.messages import (
    RREQ_SEQ_BASE,
    DataPacket,
    RouteReply,
    RouteRequest,
)
from repro.routing.table import DEFAULT_ROUTE_LIFETIME, RouteTable
from repro.sim.engine import Event

__all__ = ["RoutingAgent", "RoutingStats", "attach_agents"]

ResultCallback = Callable[[bool], None]


@dataclass
class RoutingStats:
    """Per-agent protocol counters."""

    rreqs_originated: int = 0
    rreps_originated: int = 0
    rreps_forwarded: int = 0
    rreps_dropped: int = 0  # no reverse route to forward along
    routes_discovered: int = 0
    discovery_failures: int = 0
    data_sent: int = 0
    data_forwarded: int = 0
    data_delivered: int = 0
    data_failed: int = 0
    forward_failures: int = 0  # per-hop ACK failures observed here


class _PendingDiscovery:
    __slots__ = ("queue", "attempts", "timeout_event")

    def __init__(self) -> None:
        self.queue: List[Tuple[DataPacket, Optional[ResultCallback]]] = []
        self.attempts = 0
        self.timeout_event: Optional[Event] = None


class RoutingAgent:
    """Attach one per host: ``RoutingAgent(host)``."""

    def __init__(
        self,
        host: MobileHost,
        discovery_timeout: float = 1.0,
        max_discovery_attempts: int = 2,
        route_lifetime: float = DEFAULT_ROUTE_LIFETIME,
    ) -> None:
        if discovery_timeout <= 0:
            raise ValueError(f"discovery_timeout must be > 0, got {discovery_timeout}")
        if max_discovery_attempts < 1:
            raise ValueError(
                f"max_discovery_attempts must be >= 1, got {max_discovery_attempts}"
            )
        self.host = host
        self.table = RouteTable(route_lifetime)
        self.stats = RoutingStats()
        #: Payloads delivered to this host as the final destination.
        self.received: List[DataPacket] = []
        self._discovery_timeout = discovery_timeout
        self._max_discovery_attempts = max_discovery_attempts
        self._rreq_seq = RREQ_SEQ_BASE
        self._data_seq = 0
        self._pending: Dict[int, _PendingDiscovery] = {}

        host.packet_observers.append(self._on_broadcast)
        if host.unicast_handler is not None:
            raise RuntimeError(f"host {host.host_id} already has a unicast handler")
        host.unicast_handler = self._on_unicast

    # ------------------------------------------------------------- sending

    def send_data(
        self,
        dest_id: int,
        payload: Any = None,
        on_result: Optional[ResultCallback] = None,
    ) -> DataPacket:
        """Send ``payload`` toward ``dest_id``, discovering a route if needed.

        ``on_result(ok)`` reports the local outcome (see module docstring).
        """
        if dest_id == self.host.host_id:
            raise ValueError("sending data to self")
        self._data_seq += 1
        packet = DataPacket(
            origin_id=self.host.host_id,
            dest_id=dest_id,
            seq=self._data_seq,
            payload=payload,
        )
        self.stats.data_sent += 1
        now = self.host.scheduler.now
        route = self.table.lookup(dest_id, now)
        if route is not None:
            self._forward(packet, on_result)
        else:
            self._enqueue_for_discovery(packet, on_result)
        return packet

    def has_route(self, dest_id: int) -> bool:
        return self.table.lookup(dest_id, self.host.scheduler.now) is not None

    # ----------------------------------------------------------- discovery

    def _enqueue_for_discovery(
        self, packet: DataPacket, on_result: Optional[ResultCallback]
    ) -> None:
        pending = self._pending.get(packet.dest_id)
        if pending is None:
            pending = _PendingDiscovery()
            self._pending[packet.dest_id] = pending
            pending.queue.append((packet, on_result))
            self._issue_rreq(packet.dest_id)
        else:
            pending.queue.append((packet, on_result))

    def _issue_rreq(self, dest_id: int) -> None:
        pending = self._pending[dest_id]
        pending.attempts += 1
        self._rreq_seq += 1
        host = self.host
        rreq = RouteRequest(
            source_id=host.host_id,
            seq=self._rreq_seq,
            origin_time=host.scheduler.now,
            tx_id=host.host_id,
            tx_position=(
                host.position() if host.scheme.needs_position else None
            ),
            hops=0,
            target_id=dest_id,
        )
        host.dup_cache.add(rreq.key)
        self.stats.rreqs_originated += 1
        host.scheme.on_originate(rreq)
        pending.timeout_event = host.scheduler.schedule(
            self._discovery_timeout, self._on_discovery_timeout, dest_id
        )

    def _on_discovery_timeout(self, dest_id: int) -> None:
        pending = self._pending.get(dest_id)
        if pending is None:
            return
        pending.timeout_event = None
        if self.has_route(dest_id):
            self._flush_pending(dest_id)
            return
        if pending.attempts < self._max_discovery_attempts:
            self._issue_rreq(dest_id)
            return
        del self._pending[dest_id]
        self.stats.discovery_failures += 1
        for packet, on_result in pending.queue:
            self.stats.data_failed += 1
            if on_result is not None:
                on_result(False)

    def _flush_pending(self, dest_id: int) -> None:
        pending = self._pending.pop(dest_id, None)
        if pending is None:
            return
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
        for packet, on_result in pending.queue:
            self._forward(packet, on_result)

    # ------------------------------------------------------ packet hooks

    def _on_broadcast(self, packet: BroadcastPacket, sender_id: int) -> None:
        if not isinstance(packet, RouteRequest):
            return
        now = self.host.scheduler.now
        # Reverse route toward the originator through whoever relayed this.
        self.table.update(
            packet.source_id, next_hop=sender_id, hop_count=packet.hops + 1,
            now=now,
        )
        if packet.target_id == self.host.host_id:
            self.stats.rreps_originated += 1
            self._send_reply(
                RouteReply(
                    origin_id=packet.source_id,
                    target_id=self.host.host_id,
                    request_seq=packet.seq,
                    hop_count=0,
                )
            )

    def _on_unicast(self, frame: Any, sender_id: int) -> None:
        now = self.host.scheduler.now
        if isinstance(frame, RouteReply):
            # Forward route to the discovered target through the sender.
            self.table.update(
                frame.target_id, next_hop=sender_id,
                hop_count=frame.hop_count + 1, now=now,
            )
            if frame.origin_id == self.host.host_id:
                self.stats.routes_discovered += 1
                self._flush_pending(frame.target_id)
            else:
                self.stats.rreps_forwarded += 1
                self._send_reply(frame.forwarded())
            return
        if isinstance(frame, DataPacket):
            if frame.dest_id == self.host.host_id:
                self.stats.data_delivered += 1
                self.received.append(frame)
            else:
                self.stats.data_forwarded += 1
                self._forward(frame, None)
            return
        raise TypeError(
            f"routing agent at host {self.host.host_id} got unknown unicast "
            f"{frame!r}"
        )

    # ---------------------------------------------------------- forwarding

    def _send_reply(self, reply: RouteReply) -> None:
        route = self.table.lookup(reply.origin_id, self.host.scheduler.now)
        if route is None:
            self.stats.rreps_dropped += 1
            return

        def done(ok: bool) -> None:
            if not ok:
                self.stats.forward_failures += 1
                self.table.invalidate_via(route.next_hop)

        self.host.mac.send_unicast(
            reply, reply.size_bytes, route.next_hop, on_complete=done
        )

    def _forward(
        self, packet: DataPacket, on_result: Optional[ResultCallback]
    ) -> None:
        now = self.host.scheduler.now
        route = self.table.lookup(packet.dest_id, now)
        if route is None:
            # Route evaporated between queueing and sending.
            self.stats.data_failed += 1
            if on_result is not None:
                on_result(False)
            return

        def done(ok: bool) -> None:
            if ok:
                self.table.refresh(packet.dest_id, self.host.scheduler.now)
            else:
                self.stats.forward_failures += 1
                self.table.invalidate_via(route.next_hop)
                if on_result is None:
                    self.stats.data_failed += 1
            if on_result is not None:
                if not ok:
                    self.stats.data_failed += 1
                on_result(ok)

        self.host.mac.send_unicast(
            packet, packet.size_bytes, route.next_hop, on_complete=done
        )


def attach_agents(network: Network, **agent_kwargs: Any) -> Dict[int, RoutingAgent]:
    """Create one :class:`RoutingAgent` per host of ``network``."""
    return {
        host.host_id: RoutingAgent(host, **agent_kwargs)
        for host in network.hosts
    }
