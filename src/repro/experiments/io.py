"""Result persistence: JSON and CSV export/import.

Long parameter sweeps are expensive; these helpers let the harness save
every scenario's summary as it lands and reload sweeps for later analysis
without re-simulation.

Formats:

- JSON: one document per run / figure, round-trippable
  (:func:`result_to_dict` / :func:`figure_result_to_dict`).
- CSV: one row per (series, x) point, for spreadsheet or pandas use.
"""

from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures.common import FigureResult, SeriesPoint
from repro.experiments.runner import SimulationResult
from repro.faults.plan import FaultPlan
from repro.metrics.collector import (
    FaultEventRecord,
    MetricsCollector,
    SimulationSummary,
    SummaryStat,
)
from repro.net.host import HelloConfig
from repro.perf import KernelPerf
from repro.telemetry.resources import ResourceProfile
from repro.phy.channel import ChannelStats
from repro.phy.params import PhyParams

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "scenario_to_dict",
    "scenario_from_dict",
    "figure_result_to_dict",
    "figure_result_from_dict",
    "save_json",
    "load_json",
    "figure_result_to_csv",
    "write_figure_csv",
]

PathLike = Union[str, Path]


def _stat_to_dict(stat) -> Any:
    if stat is None:
        return None
    return {"mean": stat.mean, "std": stat.std, "count": stat.count}


def _stat_from_dict(data) -> Any:
    if data is None:
        return None
    return SummaryStat(mean=data["mean"], std=data["std"], count=data["count"])


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Flatten a :class:`SimulationResult` for JSON export.

    Captures the config identity, the headline metrics with their spreads,
    the channel counters and the fault trace -- enough to rebuild any table
    in the paper (and a summary-grade :class:`SimulationResult` via
    :func:`result_from_dict`), not the raw per-broadcast records.
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


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    """Inverse of :func:`result_to_dict`, to summary fidelity.

    The reconstructed result carries the summary statistics, channel
    counters (airtime totals under the sentinel host id ``-1``), fault
    trace and perf metadata -- but not the raw per-broadcast records, so
    its ``metrics`` collector is empty.  Dicts from before a field existed
    load with that field at its default.
    """
    cfg = data["config"]
    config = ScenarioConfig(
        scheme=cfg["scheme"],
        scheme_params=dict(cfg.get("scheme_params", {})),
        map_units=cfg["map_units"],
        num_hosts=cfg["num_hosts"],
        num_broadcasts=cfg["num_broadcasts"],
        max_speed_kmh=cfg.get("max_speed_kmh"),
        seed=cfg["seed"],
    )
    metrics_block = data.get("metrics", {})
    broadcasts = metrics_block.get("broadcasts", 0)
    stats_block = data.get("stats")
    if stats_block is not None:
        reachability = _stat_from_dict(stats_block["reachability"])
        saved = _stat_from_dict(stats_block["saved_rebroadcast"])
        latency = _stat_from_dict(stats_block["latency"])
    else:
        # Legacy dict (means only): spreads are unknowable, report 0.
        def legacy(value):
            if value is None or value != value:  # None or NaN
                return None
            return SummaryStat(mean=value, std=0.0, count=broadcasts)

        reachability = legacy(metrics_block.get("re"))
        saved = legacy(metrics_block.get("srb"))
        latency = legacy(metrics_block.get("latency"))
    summary = SimulationSummary(
        reachability=reachability,
        saved_rebroadcast=saved,
        latency=latency,
        broadcasts=broadcasts,
        hello_packets_sent=metrics_block.get("hellos", 0),
    )

    ch = data.get("channel", {})
    channel_stats = ChannelStats()
    for name in (
        "transmissions", "deliveries", "collisions", "deaf_misses",
        "injected_drops", "aborted_frames", "truncated_receptions",
        "batch_scans", "vector_candidates",
    ):
        setattr(channel_stats, name, ch.get(name, 0))
    # Per-host airtime breakdowns are not exported; park the totals under a
    # sentinel id so total_tx_airtime / total_rx_airtime still report them.
    if ch.get("total_tx_airtime"):
        channel_stats.tx_airtime[-1] = ch["total_tx_airtime"]
    if ch.get("total_rx_airtime"):
        channel_stats.rx_airtime[-1] = ch["total_rx_airtime"]

    perf_block = data.get("perf", {})
    kernel = perf_block.get("kernel")
    perf = None
    if kernel is not None:
        perf = KernelPerf()
        for name in KernelPerf.__slots__:
            setattr(perf, name, kernel.get(name, 0))

    resources_block = data.get("resources")
    resources = (
        ResourceProfile.from_dict(resources_block)
        if resources_block is not None
        else None
    )

    return SimulationResult(
        config=config,
        metrics=MetricsCollector(),
        stats=summary,
        channel_stats=channel_stats,
        end_time=data["end_time"],
        events_processed=data["events_processed"],
        backoffs_started=data.get("backoffs_started", 0),
        fault_trace=[
            FaultEventRecord(time=e[0], kind=e[1], host_id=e[2])
            for e in data.get("fault_trace", [])
        ],
        broadcasts_skipped=data.get("broadcasts_skipped", 0),
        wall_time=perf_block.get("wall_time", 0.0),
        from_cache=perf_block.get("from_cache", False),
        perf=perf,
        resources=resources,
    )


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


def figure_result_to_dict(result: FigureResult) -> Dict[str, Any]:
    """JSON-ready form of a :class:`FigureResult`."""
    return {
        "figure": result.figure,
        "x_label": result.x_label,
        "series": {
            name: [
                {
                    "x": p.x,
                    "re": p.re,
                    "srb": p.srb,
                    "latency": p.latency,
                    "hellos": p.hellos,
                }
                for p in points
            ]
            for name, points in result.series.items()
        },
    }


def figure_result_from_dict(data: Dict[str, Any]) -> FigureResult:
    """Inverse of :func:`figure_result_to_dict`."""
    result = FigureResult(data["figure"], data["x_label"])
    for name, points in data["series"].items():
        for p in points:
            result.add(
                name,
                SeriesPoint(
                    x=p["x"],
                    re=p["re"],
                    srb=p["srb"],
                    latency=p["latency"],
                    hellos=p.get("hellos", 0),
                ),
            )
    return result


def save_json(data: Dict[str, Any], path: PathLike) -> None:
    """Write ``data`` as pretty-printed JSON."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True))


def load_json(path: PathLike) -> Dict[str, Any]:
    return json.loads(Path(path).read_text())


def figure_result_to_csv(result: FigureResult) -> str:
    """Render a figure's series as CSV text (one row per point)."""
    buffer = _io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["figure", "series", result.x_label, "re", "srb",
                     "latency", "hellos"])
    for name, points in result.series.items():
        for p in points:
            writer.writerow(
                [result.figure, name, p.x, p.re, p.srb, p.latency, p.hellos]
            )
    return buffer.getvalue()


def write_figure_csv(result: FigureResult, path: PathLike) -> None:
    Path(path).write_text(figure_result_to_csv(result))
