"""Deterministic expansion of a campaign spec into planned runs.

The planner turns a :class:`~repro.campaigns.spec.CampaignSpec` into an
ordered list of :class:`PlannedRun`\\ s with **stable campaign-relative
ids**: axes iterate in sorted name order with ``seed`` innermost, so the
same spec always produces the same ``run-NNNNN`` -> scenario mapping, on
any machine, in any session: ``run-00042`` means the same simulation
today and tomorrow.

Each planned run also carries its :func:`config_digest`, the SHA-256
key the :class:`~repro.experiments.parallel.ResultCache` stores results
under.  The digest is what lets a crashed campaign resume from the
cache, and what joins a campaign with every figure or CLI run of the
same scenario.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

from repro.campaigns.spec import NO_FAULTS, CampaignSpec, SpecError
from repro.experiments.config import ScenarioConfig
from repro.experiments.io import scenario_from_dict
from repro.experiments.parallel import config_digest

__all__ = ["PlannedRun", "CampaignPlan", "plan_campaign", "axis_order"]


@dataclass(frozen=True)
class PlannedRun:
    """One scenario of a campaign, with its stable identity."""

    run_id: str  # "run-00000", campaign-relative, stable across sessions
    index: int
    point: Dict[str, Any]  # axis -> swept value (fault plans by name)
    config: ScenarioConfig
    digest: str  # ResultCache key

    def label(self) -> str:
        """Compact human-readable grid coordinates."""
        return " ".join(f"{k}={v}" for k, v in sorted(self.point.items()))


@dataclass(frozen=True)
class CampaignPlan:
    """A fully expanded campaign: spec + ordered runs + identity."""

    spec: CampaignSpec
    campaign_id: str
    runs: Tuple[PlannedRun, ...]

    @property
    def total(self) -> int:
        return len(self.runs)


def axis_order(spec: CampaignSpec) -> List[str]:
    """Axis iteration order: sorted names, ``seed`` innermost.

    Seed-innermost means the runs for one grid point sit adjacently in
    the queue, so partial progress tends to complete whole points first
    (nicer live summaries) -- and the order is documented and frozen
    because run ids depend on it.
    """
    axes = sorted(spec.grid)
    if "seed" in axes:
        axes.remove("seed")
        axes.append("seed")
    return axes


def _iter_points(spec: CampaignSpec) -> Iterator[Dict[str, Any]]:
    axes = axis_order(spec)
    for combo in itertools.product(*(spec.grid[a] for a in axes)):
        yield dict(zip(axes, combo))


def _config_for(spec: CampaignSpec, point: Dict[str, Any]) -> ScenarioConfig:
    scenario = dict(spec.scenario)
    scheme_params = dict(scenario.get("scheme_params", {}))
    for axis, value in point.items():
        if axis == "faults":
            scenario["faults"] = (
                None if value == NO_FAULTS
                else spec.fault_plans[value].to_dict()
            )
        elif axis.startswith("scheme_params."):
            scheme_params[axis.split(".", 1)[1]] = value
        else:
            scenario[axis] = value
    if scheme_params:
        scenario["scheme_params"] = scheme_params
    if scenario.get("faults") is None:
        scenario.pop("faults", None)
    return scenario_from_dict(scenario)


def plan_campaign(spec: CampaignSpec) -> CampaignPlan:
    """Expand ``spec`` into its deterministic run list.

    Raises :class:`~repro.campaigns.spec.SpecError` when a grid point
    produces an invalid scenario (e.g. sweeping ``num_hosts = [0]``).
    """
    runs: List[PlannedRun] = []
    for index, point in enumerate(_iter_points(spec)):
        try:
            config = _config_for(spec, point)
        except (ValueError, TypeError) as exc:
            raise SpecError(
                f"grid point {point!r} is not a valid scenario: {exc}"
            ) from exc
        runs.append(
            PlannedRun(
                run_id=f"run-{index:05d}",
                index=index,
                point=point,
                config=config,
                digest=config_digest(config),
            )
        )
    return CampaignPlan(
        spec=spec,
        campaign_id=f"{spec.name}-{spec.digest()[:10]}",
        runs=tuple(runs),
    )
