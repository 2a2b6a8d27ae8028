"""Benchmark trajectory tracking: ``bench record`` / ``bench check``.

Benchmark documents (``BENCH_parallel.json``, ``BENCH_scheme_zoo.json``,
the paper suite's ``bench/run.py --out``) are one-off measurements; a
single measurement cannot show a regression.  This module turns those
documents into a trajectory:

- :func:`record_entry` flattens a ``BENCH_*.json`` into numeric metrics
  and appends one timestamped line to ``bench_history.jsonl``.
  ``bench/run.py --history`` appends the paper suite's runs to
  ``bench/history.jsonl`` in the same line format.
- :func:`check_history` diffs the newest entry against a rolling
  baseline (the median of the previous ``window`` entries, per metric)
  and reports any higher-is-better metric that fell more than
  ``threshold`` below it.  The CLI maps regressions to a non-zero exit,
  which is what makes it a gate.

Only metrics whose dotted path matches a higher-is-better pattern
(default: ``events_per_sec``, ``speedup``) are *gated* -- wall times and
deterministic counters are recorded for the trajectory but never fail
the check (lower wall is better, and RE/SRB changes are semantics, not
perf, with their own golden tests).

History line schema (one JSON object per line)::

    {"v": 1, "ts": "2026-08-08T12:00:00+00:00", "bench": "parallel",
     "source": "BENCH_parallel.json", "platform": {...},
     "metrics": {"events_per_sec": 36479.8, "speedup": 2.24, ...}}
"""

from __future__ import annotations

import datetime
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "HISTORY_VERSION",
    "DEFAULT_GATE_PATTERNS",
    "BenchCheckReport",
    "MetricVerdict",
    "flatten_metrics",
    "infer_bench_name",
    "record_entry",
    "load_history",
    "check_history",
]

PathLike = Union[str, Path]

#: Bump when the history line schema changes incompatibly.
HISTORY_VERSION = 1

#: Subtrees of a BENCH document that are context, not measurements.
_EXCLUDED_KEYS = frozenset({"platform", "scenario", "bench"})

#: Dotted-path substrings marking a metric as higher-is-better and
#: therefore gated by ``check``.
DEFAULT_GATE_PATTERNS: Tuple[str, ...] = ("events_per_sec", "speedup")

_BENCH_FILE = re.compile(r"^BENCH_(?P<name>[A-Za-z0-9_-]+)\.json$")


def infer_bench_name(path: PathLike) -> str:
    """``BENCH_parallel.json`` -> ``"parallel"`` (else the bare stem)."""
    name = Path(path).name
    match = _BENCH_FILE.match(name)
    if match:
        return match.group("name")
    return Path(path).stem


def flatten_metrics(
    doc: Any, prefix: str = "", out: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Numeric leaves of a BENCH document as ``dotted.path -> value``.

    Dict keys join with ``.``; list elements index by position (bench
    sweeps are deterministically ordered).  Booleans and the excluded
    context subtrees (``platform``, ``scenario``) are skipped; numeric
    strings stay strings (they are labels, e.g. a formula in
    ``scenario.broadcasts``).
    """
    if out is None:
        out = {}
    if isinstance(doc, dict):
        for key in sorted(doc):
            if not prefix and key in _EXCLUDED_KEYS:
                continue
            sub_prefix = f"{prefix}.{key}" if prefix else str(key)
            flatten_metrics(doc[key], sub_prefix, out)
    elif isinstance(doc, (list, tuple)):
        for i, item in enumerate(doc):
            flatten_metrics(item, f"{prefix}.{i}" if prefix else str(i), out)
    elif isinstance(doc, bool):
        pass
    elif isinstance(doc, (int, float)) and prefix:
        out[prefix] = float(doc)
    return out


def record_entry(
    bench_path: PathLike,
    history_path: PathLike,
    name: Optional[str] = None,
    timestamp: Optional[str] = None,
) -> Dict[str, Any]:
    """Append one history line extracted from ``bench_path``.

    Returns the appended entry.  Raises ``ValueError`` when the bench
    document yields no numeric metrics (wrong file) and ``OSError`` /
    ``json.JSONDecodeError`` for unreadable input.
    """
    bench_path = Path(bench_path)
    doc = json.loads(bench_path.read_text(encoding="utf-8"))
    metrics = flatten_metrics(doc)
    if not metrics:
        raise ValueError(f"{bench_path} contains no numeric metrics")
    entry: Dict[str, Any] = {
        "v": HISTORY_VERSION,
        "ts": timestamp or datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "bench": name or infer_bench_name(bench_path),
        "source": bench_path.name,
        "platform": doc.get("platform") if isinstance(doc, dict) else None,
        "metrics": metrics,
    }
    history_path = Path(history_path)
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with history_path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
    return entry


def load_history(
    history_path: PathLike, name: Optional[str] = None
) -> List[Dict[str, Any]]:
    """History entries in append order, optionally for one bench name.

    A torn final line (crash mid-append) is dropped; corruption earlier
    in the file raises.
    """
    path = Path(history_path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return []
    entries: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            if not isinstance(entry, dict) or "metrics" not in entry:
                raise ValueError("not a history entry")
        except ValueError as exc:
            if lineno == len(lines) - 1:
                break  # torn tail from a crash mid-append
            raise ValueError(
                f"{path}:{lineno + 1}: corrupt history line: {exc}"
            ) from exc
        if name is None or entry.get("bench") == name:
            entries.append(entry)
    return entries


@dataclass(frozen=True)
class MetricVerdict:
    """One gated metric's latest value vs its rolling baseline."""

    metric: str
    baseline: float  # median of the window entries
    latest: float
    samples: int  # baseline entries the median came from

    @property
    def change(self) -> float:
        """Fractional change vs baseline (+ = faster, - = slower)."""
        if self.baseline == 0.0:
            return 0.0
        return self.latest / self.baseline - 1.0

    def regressed(self, threshold: float) -> bool:
        return self.change < -threshold


@dataclass
class BenchCheckReport:
    """Outcome of one ``bench check`` invocation."""

    bench: Optional[str]
    threshold: float
    window: int
    entries: int  # history entries considered (after name filtering)
    verdicts: List[MetricVerdict] = field(default_factory=list)
    #: Gated metrics in the latest entry with no prior history.
    new_metrics: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.regressed(self.threshold)]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        header = (
            f"bench check: {self.entries} entries"
            + (f" for {self.bench!r}" if self.bench else "")
            + f", threshold {self.threshold:.0%}, window {self.window}"
        )
        if self.entries < 2:
            return header + "\nno baseline yet (need >= 2 entries); ok"
        lines = [header]
        width = max((len(v.metric) for v in self.verdicts), default=6)
        for v in sorted(self.verdicts, key=lambda v: v.change):
            flag = "REGRESSED" if v.regressed(self.threshold) else "ok"
            lines.append(
                f"  {v.metric:<{width}}  baseline {v.baseline:>12,.1f}  "
                f"latest {v.latest:>12,.1f}  {v.change:+7.1%}  {flag}"
            )
        for metric in self.new_metrics:
            lines.append(f"  {metric:<{width}}  (new metric, no baseline)")
        n = len(self.regressions)
        lines.append(
            "ok: no gated metric regressed" if self.ok
            else f"FAIL: {n} metric(s) regressed more than "
                 f"{self.threshold:.0%} below the rolling baseline"
        )
        return "\n".join(lines)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def check_history(
    history_path: PathLike,
    name: Optional[str] = None,
    threshold: float = 0.2,
    window: int = 5,
    patterns: Sequence[str] = DEFAULT_GATE_PATTERNS,
) -> BenchCheckReport:
    """Compare the newest history entry against its rolling baseline.

    For every gated metric (dotted path containing one of ``patterns``)
    present in the latest entry, the baseline is the **median** of that
    metric over the previous ``window`` entries -- median, not mean, so
    one noisy CI run cannot drag the baseline down and mask a real
    regression (the same noise-armour reasoning as the PR-5 overhead
    benchmark).  A metric more than ``threshold`` below baseline is a
    regression; fewer than two entries means "no baseline yet", which
    passes (a gate must not fail its own bootstrap).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    entries = load_history(history_path, name=name)
    report = BenchCheckReport(
        bench=name, threshold=threshold, window=window, entries=len(entries)
    )
    if len(entries) < 2:
        return report
    latest = entries[-1]["metrics"]
    previous = entries[max(0, len(entries) - 1 - window):-1]
    for metric in sorted(latest):
        if not any(pattern in metric for pattern in patterns):
            continue
        history = [
            e["metrics"][metric] for e in previous if metric in e["metrics"]
        ]
        if not history:
            report.new_metrics.append(metric)
            continue
        report.verdicts.append(MetricVerdict(
            metric=metric,
            baseline=_median(history),
            latest=latest[metric],
            samples=len(history),
        ))
    return report
