"""Campaign persistence: JSONL progress checkpoint + atomic manifest.

Two files live in a campaign directory:

- ``manifest.json`` -- the campaign's identity and coarse state (spec,
  run table, completion counts, status).  Always written atomically
  (tmp + ``os.replace``), so readers -- ``campaign status``, a
  resuming executor -- never observe a torn document.
- ``progress.jsonl`` -- one appended line per finished run, flushed and
  fsync'd at checkpoint boundaries.  Append-only survives crashes by
  construction: the worst a SIGKILL can leave is one torn final line,
  which the loader detects and drops (that run simply re-runs -- or
  cache-hits -- on resume).

Neither file stores results; those live in the shared
:class:`~repro.experiments.parallel.ResultCache` keyed by each run's
config digest.  The checkpoint only records *which* runs finished, so
resume = replay the plan, let the cache serve completed digests.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Optional, TextIO, Union

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointRecord",
    "CheckpointWriter",
    "load_records",
    "load_manifest",
    "write_manifest",
]

#: Bump when the record schema changes incompatibly.
CHECKPOINT_VERSION = 1

PathLike = Union[str, Path]


@dataclass(frozen=True)
class CheckpointRecord:
    """One finished run, as appended to ``progress.jsonl``."""

    run_id: str
    digest: str
    status: str  # "done" | "failed"
    simulated: bool  # False when the result came from the cache
    re: float
    srb: float
    latency: float
    events: int
    wall_time: float
    error: Optional[str] = None

    def to_json(self) -> str:
        data = asdict(self)
        data["v"] = CHECKPOINT_VERSION
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CheckpointRecord":
        data = dict(data)
        data.pop("v", None)
        return cls(**data)


class CheckpointWriter:
    """Append-only writer with explicit durability points.

    ``append`` buffers; ``flush`` pushes everything to disk with an
    ``fsync`` so a checkpoint boundary survives power loss, not just
    process death.  Usable as a context manager (flushes on exit).
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._fh: Optional[TextIO] = None

    def _handle(self) -> TextIO:
        if self._fh is None:
            self._fh = self.path.open("a", encoding="utf-8")
        return self._fh

    def append(self, record: CheckpointRecord) -> None:
        self._handle().write(record.to_json() + "\n")

    def flush(self) -> None:
        if self._fh is None:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def load_records(path: PathLike) -> Dict[str, CheckpointRecord]:
    """Replay a checkpoint file into ``run_id -> record`` (last wins).

    Tolerates a torn final line (partial write at the instant of a
    crash) by dropping it; a malformed line *followed by* valid ones
    means real corruption and raises.
    """
    path = Path(path)
    records: Dict[str, CheckpointRecord] = {}
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return records
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            record = CheckpointRecord.from_dict(data)
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            if lineno == len(lines) - 1:
                break  # torn tail from a crash mid-append: drop it
            raise ValueError(
                f"{path}:{lineno + 1}: corrupt checkpoint line: {exc}"
            ) from exc
        records[record.run_id] = record
    return records


def write_manifest(path: PathLike, manifest: Dict[str, Any]) -> None:
    """Atomically replace the manifest (readers never see a torn file)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_manifest(path: PathLike) -> Optional[Dict[str, Any]]:
    """The manifest dict, or ``None`` when the file does not exist."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    return json.loads(text)
