"""Result export: JSON and CSV.

Formats:

- JSON: one document per run (:func:`result_to_dict`, written by
  ``sweep --json``) and full-fidelity scenario dicts that round-trip
  (:func:`scenario_to_dict` / :func:`scenario_from_dict`, the campaign
  spec format).
- CSV: one row per (series, x) point of a figure's panels, for
  spreadsheet or pandas use.
"""

from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path
from typing import Any, Dict, Sequence, Union

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures.common import FigureResult
from repro.experiments.runner import SimulationResult
from repro.faults.plan import FaultPlan
from repro.net.host import HelloConfig
from repro.phy.params import PhyParams

__all__ = [
    "result_to_dict",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_json",
    "figure_result_to_csv",
    "write_figure_csv",
]

PathLike = Union[str, Path]


def _stat_to_dict(stat) -> Any:
    if stat is None:
        return None
    return {"mean": stat.mean, "std": stat.std, "count": stat.count}


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Flatten a :class:`SimulationResult` for JSON export.

    Captures the config identity, the headline metrics with their spreads,
    the channel counters and the fault trace -- enough to rebuild any table
    in the paper, not the raw per-broadcast records.
    """
    config = result.config
    channel = result.channel_stats
    return {
        "config": {
            "scheme": config.scheme,
            "scheme_params": dict(config.scheme_params),
            "map_units": config.map_units,
            "num_hosts": config.num_hosts,
            "num_broadcasts": config.num_broadcasts,
            "max_speed_kmh": config.resolved_max_speed_kmh,
            "seed": config.seed,
        },
        "metrics": {
            "re": result.re,
            "srb": result.srb,
            "latency": result.latency,
            "hellos": result.hellos,
            "broadcasts": result.stats.broadcasts,
        },
        "stats": {
            "reachability": _stat_to_dict(result.stats.reachability),
            "saved_rebroadcast": _stat_to_dict(result.stats.saved_rebroadcast),
            "latency": _stat_to_dict(result.stats.latency),
        },
        "channel": {
            "transmissions": channel.transmissions,
            "deliveries": channel.deliveries,
            "collisions": channel.collisions,
            "deaf_misses": channel.deaf_misses,
            "injected_drops": channel.injected_drops,
            "aborted_frames": channel.aborted_frames,
            "truncated_receptions": channel.truncated_receptions,
            "batch_scans": channel.batch_scans,
            "vector_candidates": channel.vector_candidates,
            "total_tx_airtime": channel.total_tx_airtime,
            "total_rx_airtime": channel.total_rx_airtime,
        },
        "events_processed": result.events_processed,
        "end_time": result.end_time,
        "backoffs_started": result.backoffs_started,
        "broadcasts_skipped": result.broadcasts_skipped,
        "fault_trace": [
            [e.time, e.kind, e.host_id] for e in result.fault_trace
        ],
        "perf": {
            "wall_time": result.wall_time,
            "events_per_sec": result.events_per_sec,
            "from_cache": result.from_cache,
            # Kernel counters (None for results predating the perf layer,
            # e.g. old cache entries).
            "kernel": result.perf.as_dict() if result.perf else None,
        },
        # getattr: results unpickled from a pre-resources cache lack the
        # attribute entirely (pickle restores only the fields it saved).
        "resources": (
            result.resources.as_dict()
            if getattr(result, "resources", None) is not None
            else None
        ),
    }


#: ScenarioConfig fields a scenario dict may set, with their JSON types.
#: ``capture`` and ``phy`` are deliberately absent: they have no stable
#: JSON form yet, so campaign specs cannot reach them.
_SCENARIO_SCALARS = (
    "scheme", "map_units", "unit_length", "num_hosts", "num_broadcasts",
    "interarrival_max", "max_speed_kmh", "mobility", "oracle_neighbors",
    "store_reachable_sets", "seed", "warmup", "drain",
)
_SCENARIO_KEYS = frozenset(
    _SCENARIO_SCALARS + ("scheme_params", "hello", "faults")
)

_HELLO_FIELDS = (
    "enabled", "interval", "dynamic", "nv_max", "hi_min", "hi_max"
)


def scenario_to_dict(config: ScenarioConfig) -> Dict[str, Any]:
    """Full-fidelity JSON form of a :class:`ScenarioConfig`.

    The inverse of :func:`scenario_from_dict`: the round trip preserves
    the config's cache digest, so a scenario written into a campaign spec
    hits the same :class:`ResultCache` slot as the same scenario built in
    process by a figure driver or the CLI.  Configs carrying a capture
    model, a non-default PHY, or non-scalar ``scheme_params`` have no
    stable JSON form and raise ``ValueError``.
    """
    if config.capture is not None:
        raise ValueError("capture models have no JSON scenario form")
    if config.phy != PhyParams():
        raise ValueError("non-default PhyParams have no JSON scenario form")
    for key, value in config.scheme_params.items():
        if not isinstance(value, (bool, int, float, str)):
            raise ValueError(
                f"scheme_params[{key!r}] is not a JSON scalar: {value!r}"
            )
    out: Dict[str, Any] = {
        name: getattr(config, name) for name in _SCENARIO_SCALARS
    }
    if config.scheme_params:
        out["scheme_params"] = dict(config.scheme_params)
    if config.hello != HelloConfig():
        out["hello"] = {
            name: getattr(config.hello, name) for name in _HELLO_FIELDS
        }
    if config.faults is not None:
        out["faults"] = config.faults.to_dict()
    return out


def scenario_from_dict(data: Dict[str, Any]) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from a scenario dict.

    Accepts the output of :func:`scenario_to_dict` plus two conveniences
    for hand-written specs: ``faults`` may be a CLI spec string
    (``"churn:rate=0.01,downtime=5"``) instead of a plan dict, and any
    field may simply be omitted to take the paper default.  Unknown keys
    raise ``ValueError`` -- a typo'd field silently meaning "default"
    would corrupt an entire sweep.
    """
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise ValueError(
            f"unknown scenario field(s): {', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(sorted(_SCENARIO_KEYS))})"
        )
    kwargs: Dict[str, Any] = {
        name: data[name] for name in _SCENARIO_SCALARS if name in data
    }
    if "scheme_params" in data:
        kwargs["scheme_params"] = dict(data["scheme_params"])
    if "hello" in data:
        hello = data["hello"]
        bad = set(hello) - set(_HELLO_FIELDS)
        if bad:
            raise ValueError(
                f"unknown hello field(s): {', '.join(sorted(bad))}"
            )
        kwargs["hello"] = HelloConfig(**hello)
    faults = data.get("faults")
    if faults is not None:
        if isinstance(faults, str):
            kwargs["faults"] = FaultPlan.parse(faults)
        else:
            kwargs["faults"] = FaultPlan.from_dict(faults)
    return ScenarioConfig(**kwargs)


def save_json(data: Dict[str, Any], path: PathLike) -> None:
    """Write ``data`` as pretty-printed JSON."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True))


def figure_result_to_csv(results: Sequence[FigureResult]) -> str:
    """Render a figure's panels as CSV text: one header, then one row per
    point, the ``figure`` column naming the panel.  The x column takes
    the first panel's label (a figure's panels share it)."""
    buffer = _io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["figure", "series", results[0].x_label, "re", "srb",
                     "latency", "hellos"])
    for result in results:
        for name, points in result.series.items():
            for p in points:
                writer.writerow(
                    [result.figure, name, p.x, p.re, p.srb, p.latency,
                     p.hellos]
                )
    return buffer.getvalue()


def write_figure_csv(results: Sequence[FigureResult], path: PathLike) -> None:
    Path(path).write_text(figure_result_to_csv(results))
