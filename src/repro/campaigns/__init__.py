"""Campaign orchestration: declarative, crash-resumable sweeps.

The paper's conclusions come from parameter sweeps (scheme x map x
hosts x speed x seed); this package runs them as **campaigns** --
declarative, deterministic and crash-resumable:

- :mod:`repro.campaigns.spec` -- the TOML/JSON campaign spec.
- :mod:`repro.campaigns.planner` -- deterministic expansion into runs
  with stable ids and cache digests.
- :mod:`repro.campaigns.checkpoint` -- JSONL progress log + atomic
  manifest.
- :mod:`repro.campaigns.queue` -- the work-queue executor (chunked
  through :class:`~repro.experiments.parallel.ParallelRunner`, resumes
  off the SHA-256 result cache with zero re-simulation).

CLI: ``repro-manet campaign plan|run|status``.
"""

from repro.campaigns.checkpoint import (
    CheckpointRecord,
    CheckpointWriter,
    load_manifest,
    load_records,
    write_manifest,
)
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
    "CheckpointRecord",
    "CheckpointWriter",
    "PlannedRun",
    "SpecError",
    "axis_order",
    "campaign_results_payload",
    "campaign_status",
    "load_manifest",
    "load_records",
    "load_spec",
    "plan_campaign",
    "spec_from_dict",
    "write_manifest",
]
