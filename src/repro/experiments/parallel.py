"""Parallel, cached experiment execution.

The paper's figures aggregate thousands of *independent* simulation runs
(one per seed per sweep point).  :meth:`ParallelRunner.run_many` is the
one way to run a batch of them: inline with one worker, or fanned out
across a process pool, with finished runs memoized on disk so
regenerating a figure only simulates the seeds it has not seen.

Guarantees
----------
- **Determinism**: results come back in submission order regardless of
  which worker finished first, so confidence intervals are bit-identical
  to one worker's (simulations themselves are seed-deterministic).
- **One run per scenario**: a batch simulates each distinct
  :func:`config_digest` once, cache or no cache; every position holding
  that config gets the same result object.
- **Caching**: a result is keyed by a stable SHA-256 digest of the full
  :class:`ScenarioConfig` plus a code-relevant version tag
  (:data:`RESULT_CACHE_VERSION` and the package version), so stale caches
  cannot survive a semantics change -- bump the tag when simulation
  behavior changes.
- **Graceful interrupt**: a ``KeyboardInterrupt`` (Ctrl-C / SIGTERM
  translated by the CLI) no longer tears the pool down mid-write.
  Completed results are already in the cache; pending work is cancelled
  and :class:`ExecutionInterrupted` is raised carrying the partial,
  submission-order-aligned results, so callers (the campaign executor)
  can exit in a state that a rerun of the same batch resumes.

Example::

    runner = ParallelRunner(max_workers=4, cache_dir=".repro-cache")
    results = runner.run_many(
        [config.with_overrides(seed=seed) for seed in (1, 2, 3, 4)]
    )
    print(runner.perf)   # runs, cache hit-rate, events/sec, wall time
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import SimulationResult, run_broadcast_simulation
from repro.perf import KernelPerf

__all__ = [
    "RESULT_CACHE_VERSION",
    "CacheStats",
    "ExecutionInterrupted",
    "PruneReport",
    "ResultCache",
    "RunnerPerf",
    "ParallelRunner",
    "config_digest",
]

#: Bump when simulation semantics change in a way that invalidates cached
#: results (new RNG consumption order, metric definition changes, ...).
RESULT_CACHE_VERSION = "1"


class ExecutionInterrupted(KeyboardInterrupt):
    """A batch was interrupted (Ctrl-C / SIGTERM) partway through.

    Subclasses :class:`KeyboardInterrupt` so existing ``except
    KeyboardInterrupt`` handlers keep working, but carries enough state to
    resume: ``results`` is aligned with the submitted configs (``None``
    where a run never finished) and every finished result has already
    been written to the cache, so a re-run only simulates the holes.
    """

    def __init__(self, results: Sequence[Optional[SimulationResult]]) -> None:
        self.results: List[Optional[SimulationResult]] = list(results)
        self.completed = sum(1 for r in self.results if r is not None)
        super().__init__(
            f"interrupted after {self.completed}/{len(self.results)} runs"
        )


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serializable canonical form.

    Dataclasses become ``[type-name, sorted field pairs]``, tuples become
    lists, frozensets sorted lists.  Anything without an obvious stable
    form (functions, arbitrary objects) raises ``ValueError``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            type(value).__name__,
            [
                [f.name, _canonical(getattr(value, f.name))]
                for f in dataclasses.fields(value)
            ],
        ]
    if isinstance(value, dict):
        try:
            items = sorted(value.items())
        except TypeError as exc:
            raise ValueError(f"unorderable dict keys in {value!r}") from exc
        return {"__dict__": [[str(k), _canonical(v)] for k, v in items]}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(_canonical(v) for v in value)}
    raise ValueError(
        f"cannot build a stable cache key from {type(value).__name__}: "
        f"{value!r}"
    )


def config_digest(config: ScenarioConfig) -> str:
    """Stable hex digest identifying a scenario *and* the code version.

    Raises ``ValueError`` when the config holds a value with no stable
    serial form (e.g. a function object in ``scheme_params``).
    """
    from repro import __version__ as package_version

    payload = {
        "cache_version": RESULT_CACHE_VERSION,
        "package_version": package_version,
        "config": _canonical(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk store of pickled :class:`SimulationResult`\\ s by digest."""

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        # The directory is made by the first put, so reading a cache that
        # does not exist (``campaign status``, ``cache stats``) creates
        # nothing.
        self._dir = Path(cache_dir)

    @property
    def directory(self) -> Path:
        return self._dir

    def _path(self, digest: str) -> Path:
        return self._dir / f"{digest}.pkl"

    def __contains__(self, digest: str) -> bool:
        """Whether an entry is stored under ``digest`` (not unpickled)."""
        return self._path(digest).exists()

    def get(self, digest: str) -> Optional[SimulationResult]:
        """The cached result, or ``None`` on miss.

        A corrupted or truncated entry (torn write, interrupted disk, a
        pickle from an incompatible class layout, or a file that does not
        hold a :class:`SimulationResult` at all) is treated as a miss:
        the entry is deleted best-effort so the recomputed result can
        take its slot, rather than erroring on every later lookup.
        """
        path = self._path(digest)
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            # Unpickling can fail in arbitrary ways on a torn entry
            # (UnpicklingError, EOFError, AttributeError, ImportError,
            # UnicodeDecodeError, ...): drop it and recompute.
            self._discard(path)
            return None
        if not isinstance(result, SimulationResult):
            self._discard(path)
            return None
        # Mark the entry recently-used so prune(max_bytes=...) evicts cold
        # digests first (mtime is the LRU clock).
        try:
            os.utime(path)
        except OSError:
            pass
        result.from_cache = True
        return result

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, digest: str, result: SimulationResult) -> None:
        """Store atomically (tmp + rename) so concurrent runners never
        observe a torn entry."""
        self._dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(self._dir), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(digest))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self._dir.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        for path in self._dir.glob("*.pkl"):
            path.unlink()
            n += 1
        return n

    def _entries(self) -> List["CacheEntry"]:
        """Live entries with size and mtime (vanished files skipped)."""
        entries = []
        for path in self._dir.glob("*.pkl"):
            try:
                st = path.stat()
            except OSError:
                continue  # deleted by a concurrent runner
            entries.append(
                CacheEntry(path=path, size=st.st_size, mtime=st.st_mtime)
            )
        return entries

    def stats(self) -> "CacheStats":
        """Aggregate entry count / bytes / age span of the cache."""
        entries = self._entries()
        now = time.time()
        mtimes = [e.mtime for e in entries]
        return CacheStats(
            directory=self._dir,
            entries=len(entries),
            total_bytes=sum(e.size for e in entries),
            oldest_age=(now - min(mtimes)) if mtimes else 0.0,
            newest_age=(now - max(mtimes)) if mtimes else 0.0,
        )

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
    ) -> "PruneReport":
        """Evict entries until the cache fits the given bounds.

        ``max_age`` (seconds) drops every entry whose last use is older;
        ``max_bytes`` then evicts least-recently-used entries until the
        total size fits.  ``get`` touches an entry's mtime on every hit,
        so "least recently used" means coldest digest, not oldest write.
        With neither bound this is a no-op (use :meth:`clear` to wipe).
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_age is not None and max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {max_age}")
        entries = sorted(self._entries(), key=lambda e: e.mtime)
        now = time.time()
        removed = 0
        freed = 0
        kept: List[CacheEntry] = []
        for entry in entries:
            if max_age is not None and now - entry.mtime > max_age:
                self._discard(entry.path)
                removed += 1
                freed += entry.size
            else:
                kept.append(entry)
        if max_bytes is not None:
            total = sum(e.size for e in kept)
            survivors = []
            for entry in kept:  # still LRU-first
                if total > max_bytes:
                    self._discard(entry.path)
                    removed += 1
                    freed += entry.size
                    total -= entry.size
                else:
                    survivors.append(entry)
            kept = survivors
        return PruneReport(
            removed=removed,
            freed_bytes=freed,
            kept=len(kept),
            kept_bytes=sum(e.size for e in kept),
        )


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk cache file (internal to stats/prune)."""

    path: Path
    size: int
    mtime: float


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of a :class:`ResultCache`'s footprint."""

    directory: Path
    entries: int
    total_bytes: int
    oldest_age: float  # seconds since the least recently used entry
    newest_age: float  # seconds since the most recently used entry


@dataclass(frozen=True)
class PruneReport:
    """What :meth:`ResultCache.prune` evicted and what survived."""

    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int


@dataclass
class RunnerPerf:
    """Perf counters accumulated across a :class:`ParallelRunner`'s life."""

    #: Results returned: simulated + cache hits + the repeats of a
    #: config within one batch, which share its single run.
    runs: int = 0
    simulated: int = 0
    cache_hits: int = 0  # one per distinct config found in the cache
    wall_time: float = 0.0  # parent-side wall time across run_many calls
    sim_wall_time: float = 0.0  # summed per-run wall time (worker side)
    events: int = 0  # scheduler events across simulated runs
    #: Kernel counters merged across simulated runs (None until the first
    #: simulated run reports them).
    kernel: Optional[KernelPerf] = None

    @property
    def cache_hit_rate(self) -> float:
        """Hits over lookups (simulated + hits); 0.0 before any run."""
        attempts = self.cache_hits + self.simulated
        return self.cache_hits / attempts if attempts else 0.0

    @property
    def events_per_sec(self) -> float:
        """Aggregate simulated events per summed simulation wall-second."""
        if self.sim_wall_time <= 0.0:
            return 0.0
        return self.events / self.sim_wall_time

    def note_kernel(self, perf: Optional[KernelPerf]) -> None:
        """Fold one run's kernel counters into the aggregate."""
        if perf is None:
            return
        if self.kernel is None:
            self.kernel = KernelPerf()
        self.kernel.merge(perf)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "runs": self.runs,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "wall_time": self.wall_time,
            "sim_wall_time": self.sim_wall_time,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "kernel": self.kernel.as_dict() if self.kernel else None,
        }


def _run_config(config: ScenarioConfig) -> SimulationResult:
    """Process-pool entry point (must be a module-level callable)."""
    return run_broadcast_simulation(config)


class ParallelRunner:
    """Fan simulation runs across worker processes, with an on-disk cache.

    ``max_workers=None`` uses ``os.cpu_count()``; ``max_workers=1`` (or a
    single-run batch) executes inline with no pool overhead.  Results are
    always returned in submission order, so anything computed from them is
    bit-identical whatever the worker count.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.perf = RunnerPerf()

    # ------------------------------------------------------------- core

    def run_many(
        self,
        configs: Sequence[ScenarioConfig],
        progress: Optional[Callable[[int, SimulationResult], None]] = None,
    ) -> List[SimulationResult]:
        """Run every config, preserving order; cache-hit where possible.

        Each distinct config (by :func:`config_digest`) is looked up and
        simulated at most once per batch; its result fills every position
        that holds it.  ``progress(i, result)`` is called as the result
        for position ``i`` lands: cache hits first, then simulated runs
        in submission order.  Each simulated result is cached before its
        positions are filled, so a :class:`KeyboardInterrupt` mid-batch
        loses only in-flight work: pending futures are cancelled and
        :class:`ExecutionInterrupted` is raised with the partial,
        order-aligned results.
        """
        start = time.perf_counter()
        configs = list(configs)
        results: List[Optional[SimulationResult]] = [None] * len(configs)
        # digest -> the positions holding that config, first seen first
        positions: Dict[str, List[int]] = {}
        for i, config in enumerate(configs):
            positions.setdefault(config_digest(config), []).append(i)

        def land(digest: str, result: SimulationResult) -> None:
            for i in positions[digest]:
                results[i] = result
                if progress is not None:
                    progress(i, result)

        executing: Optional[Generator[SimulationResult, None, None]] = None
        try:
            to_run: List[str] = []
            for digest in positions:
                cached = (
                    self.cache.get(digest) if self.cache is not None else None
                )
                if cached is None:
                    to_run.append(digest)
                else:
                    self.perf.cache_hits += 1
                    land(digest, cached)

            executing = self._execute(
                [configs[positions[d][0]] for d in to_run]
            )
            for digest, result in zip(to_run, executing):
                # Throughput counters deliberately exclude cache hits: a
                # cached result's wall_time is the *original* run's, so
                # folding it in would skew events/sec (see perf tests).
                self.perf.simulated += 1
                self.perf.events += result.events_processed
                self.perf.sim_wall_time += result.wall_time
                self.perf.note_kernel(result.perf)
                if self.cache is not None:
                    self.cache.put(digest, result)
                land(digest, result)
        except KeyboardInterrupt:
            # Account for what did finish, then surface a resumable state
            # (completed results are already in the cache).  Closing the
            # generator cancels any still-queued pool work.
            if executing is not None:
                executing.close()
            self.perf.runs += sum(1 for r in results if r is not None)
            self.perf.wall_time += time.perf_counter() - start
            raise ExecutionInterrupted(results) from None

        self.perf.runs += len(configs)
        self.perf.wall_time += time.perf_counter() - start
        return results  # type: ignore[return-value]

    def _execute(
        self, configs: List[ScenarioConfig]
    ) -> Generator[SimulationResult, None, None]:
        """Simulate ``configs``, yielding results in submission order.

        Pools across processes when more than one config and worker are
        available.  On interrupt the pool's pending futures are cancelled
        (never mid-write: the caller caches each yielded result as it
        lands) before the ``KeyboardInterrupt`` propagates.
        """
        workers = self.max_workers or os.cpu_count() or 1
        workers = min(workers, len(configs))
        if workers <= 1:
            for config in configs:
                yield run_broadcast_simulation(config)
            return

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(_run_config, config) for config in configs]
            for future in futures:
                yield future.result()
        except BaseException:
            # cancel_futures drops queued work; in-flight tasks finish in
            # their workers but are never consumed.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True)
