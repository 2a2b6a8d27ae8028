"""Campaign orchestration: declarative, crash-resumable sweeps.

The paper's conclusions come from parameter sweeps (scheme x map x
hosts x speed x seed); this package runs them as **campaigns** --
declarative, deterministic and crash-resumable:

- :mod:`repro.campaigns.spec` -- the TOML/JSON campaign spec.
- :mod:`repro.campaigns.planner` -- deterministic expansion into runs
  with stable ids and cache digests.
- :mod:`repro.campaigns.queue` -- the executor (each session is one
  :class:`~repro.experiments.parallel.ParallelRunner` batch; the SHA-256
  result cache is the only record of progress, so a rerun resumes with
  zero re-simulation) and the atomic manifest.

CLI: ``repro-manet campaign plan|run|status``.
"""

from repro.campaigns.planner import (
    CampaignPlan,
    PlannedRun,
    axis_order,
    plan_campaign,
)
from repro.campaigns.queue import (
    CampaignExecutor,
    CampaignMismatch,
    CampaignOutcome,
    campaign_results_payload,
    campaign_status,
    load_manifest,
    write_manifest,
)
from repro.campaigns.spec import (
    GRID_AXES,
    NO_FAULTS,
    CampaignSpec,
    SpecError,
    load_spec,
    spec_from_dict,
)

__all__ = [
    "GRID_AXES",
    "NO_FAULTS",
    "CampaignExecutor",
    "CampaignMismatch",
    "CampaignOutcome",
    "CampaignPlan",
    "CampaignSpec",
    "PlannedRun",
    "SpecError",
    "axis_order",
    "campaign_results_payload",
    "campaign_status",
    "load_manifest",
    "load_spec",
    "plan_campaign",
    "spec_from_dict",
    "write_manifest",
]
