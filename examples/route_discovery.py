#!/usr/bin/env python
"""Route discovery on top of broadcasting (the paper's motivating use).

MANET routing protocols (DSR, AODV, ZRP...) find routes by broadcasting a
route_request across the network.  This example issues RREQ broadcasts from
random sources toward random destinations and measures, per scheme:

- **discovery rate**: the destination received the request, counted only
  over requests whose destination was actually reachable (multihop) from
  the source at request time -- partitions are not the scheme's fault;
- **data cost**: broadcast transmissions (source + rebroadcasts) per
  request;
- **hello overhead**: control packets the scheme's neighbor discovery
  needed, reported separately so the comparison stays honest;
- **discovery latency**: time until the destination heard the request.

This example measures the RREQ *dissemination* itself, which rides the
broadcast path alone.  Route replies and data forwarding would need
acknowledged unicast, which the paper's 802.11 broadcast MAC (and this
simulator's) does not have.

Run:  python examples/route_discovery.py
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_broadcast_simulation
from repro.net.host import HelloConfig


@dataclass
class DiscoveryStats:
    eligible: int = 0  # requests whose destination was reachable
    delivered: int = 0
    data_tx: int = 0
    hello_tx: int = 0
    requests: int = 0
    total_latency: float = 0.0

    @property
    def discovery_rate(self) -> float:
        return self.delivered / self.eligible if self.eligible else 0.0

    @property
    def data_cost_per_request(self) -> float:
        return self.data_tx / self.requests if self.requests else 0.0

    @property
    def mean_latency(self) -> float:
        return (
            self.total_latency / self.delivered if self.delivered else float("nan")
        )


def discover_routes(scheme: str, hello: HelloConfig, requests: int = 30,
                    seed: int = 7, **scheme_params) -> DiscoveryStats:
    config = ScenarioConfig(
        scheme=scheme,
        scheme_params=scheme_params,
        map_units=7,
        num_broadcasts=requests,
        hello=hello,
        store_reachable_sets=True,
        seed=seed,
    )
    result = run_broadcast_simulation(config)
    rng = random.Random(seed)

    stats = DiscoveryStats(requests=requests)
    stats.hello_tx = result.hellos
    for record in result.metrics.records.values():
        stats.data_tx += 1 + record.rebroadcast_count
        # Pick the RREQ destination among all other hosts.
        dest = rng.randrange(config.num_hosts - 1)
        if dest >= record.source_id:
            dest += 1
        if record.reachable_set is None or dest not in record.reachable_set:
            continue  # partitioned destination: not the scheme's problem
        stats.eligible += 1
        arrival = record.received_times.get(dest)
        if arrival is not None:
            stats.delivered += 1
            stats.total_latency += arrival - record.origin_time
    return stats


def main() -> None:
    print("Route-request discovery over a 7x7 map, 100 hosts, 30 requests\n")
    lineup = [
        ("flooding", "flooding", HelloConfig(), {}),
        ("counter (C=2)", "counter", HelloConfig(), {"threshold": 2}),
        ("adaptive-counter", "adaptive-counter", HelloConfig(), {}),
        ("adaptive-location", "adaptive-location", HelloConfig(), {}),
        ("neighbor-coverage + DHI", "neighbor-coverage",
         HelloConfig(dynamic=True), {}),
    ]
    header = (
        f"{'scheme':<26} {'discovery':>10} {'data tx/req':>12} "
        f"{'hellos':>8} {'latency':>9}"
    )
    print(header)
    for label, scheme, hello, params in lineup:
        stats = discover_routes(scheme, hello, **params)
        print(
            f"{label:<26} {stats.discovery_rate:>10.1%} "
            f"{stats.data_cost_per_request:>12.1f} {stats.hello_tx:>8} "
            f"{stats.mean_latency * 1000:>7.1f}ms"
        )
    print(
        "\nThe suppression schemes cut the per-request broadcast cost well\n"
        "below flooding's one-transmission-per-host.  A too-aggressive\n"
        "fixed threshold (C=2) also cuts the discovery rate; the adaptive\n"
        "schemes keep discovery near flooding's level.  Their HELLO\n"
        "overhead is the price of neighbor knowledge -- amortized across\n"
        "all traffic, and reduced further by the dynamic hello interval."
    )


if __name__ == "__main__":
    main()
