"""Scenario configuration.

Defaults mirror the paper's simulation setup (Section 4): 100 hosts, square
maps measured in 500 m units, uniform 0-2 s broadcast interarrival,
random-direction roaming with a map-scaled maximum speed (10 km/h on the
1x1 map, 30 on 3x3, 50 on 5x5, ... -- i.e. ``10 * map_units``), and the
DSSS PHY constants of :class:`repro.phy.params.PhyParams`.

The paper runs 10,000 broadcasts per simulation; RE/SRB/latency are
per-broadcast means that converge much earlier, so ``num_broadcasts``
defaults to a laptop-friendly value and EXPERIMENTS.md records what each
reproduction used.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.faults.plan import FaultPlan
from repro.net.host import HelloConfig
from repro.phy.capture import CaptureModel
from repro.phy.params import PhyParams

__all__ = ["ScenarioConfig", "default_max_speed_kmh"]


def default_max_speed_kmh(map_units: int) -> float:
    """The paper's map-scaled default speed: 10 km/h per map unit."""
    return 10.0 * map_units


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one simulation."""

    scheme: str = "flooding"
    scheme_params: Dict[str, Any] = field(default_factory=dict)
    map_units: int = 5
    unit_length: float = 500.0
    num_hosts: int = 100
    num_broadcasts: int = 100
    interarrival_max: float = 2.0
    max_speed_kmh: Optional[float] = None  # None -> 10 * map_units
    mobility: str = "random-direction"
    hello: HelloConfig = field(default_factory=HelloConfig)
    oracle_neighbors: bool = False
    #: Keep every broadcast's full per-host record: its reachable set and
    #: each receiver's first-hear and decision instants.  Otherwise a
    #: broadcast settles to its counts and latency once it can no longer
    #: change (see repro.metrics.collector), and a run's memory stays
    #: flat.  Needed by analyses that ask "did host X get packet P?".
    store_reachable_sets: bool = False
    #: Optional capture-effect model (None = the paper's no-capture
    #: assumption; see repro.phy.capture).
    capture: Optional[CaptureModel] = None
    #: Optional fault schedule (host churn, link loss, HELLO suppression);
    #: executed by a FaultInjector drawing from the "faults" substream so
    #: mobility traces stay identical with faults on or off.
    faults: Optional[FaultPlan] = None
    phy: PhyParams = field(default_factory=PhyParams)
    seed: int = 1
    warmup: Optional[float] = None  # None -> derived from hello settings
    drain: float = 5.0

    def __post_init__(self) -> None:
        if self.map_units < 1:
            raise ValueError(f"map_units must be >= 1, got {self.map_units}")
        if self.num_hosts < 1:
            raise ValueError(f"num_hosts must be >= 1, got {self.num_hosts}")
        if self.num_broadcasts < 0:
            raise ValueError(
                f"num_broadcasts must be >= 0, got {self.num_broadcasts}"
            )
        if self.interarrival_max <= 0:
            raise ValueError(
                f"interarrival_max must be > 0, got {self.interarrival_max}"
            )
        if self.drain < 0:
            raise ValueError(f"drain must be >= 0, got {self.drain}")

    @property
    def resolved_max_speed_kmh(self) -> float:
        if self.max_speed_kmh is not None:
            return self.max_speed_kmh
        return default_max_speed_kmh(self.map_units)

    def resolved_warmup(self, hello_enabled: bool) -> float:
        """Warm-up time before traffic starts.

        Neighbor tables need roughly two hello rounds to become accurate;
        without hellos only a short settling period is used.
        """
        if self.warmup is not None:
            return self.warmup
        if not hello_enabled:
            return 0.5
        interval = self.hello.hi_max if self.hello.dynamic else self.hello.interval
        return 2.0 * interval + 1.0

    def with_overrides(self, **changes: Any) -> "ScenarioConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def label(self) -> str:
        """Compact human-readable identity for tables."""
        speed = self.resolved_max_speed_kmh
        return (
            f"{self.scheme}@{self.map_units}x{self.map_units}"
            f"/{speed:g}km/h/seed{self.seed}"
        )
