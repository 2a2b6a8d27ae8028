"""Outside-in per-layer spans for the paper-workload benchmark.

A traced pass installs timing wrappers on each layer's public entry
points, at class level, and restores the original class attributes when
it ends.  Nothing under ``src/`` knows about it.  Event callbacks are
wrapped as they are scheduled (``Scheduler.schedule_at``) and charged to
the layer of the module that defines them, so a MAC backoff timer counts
as ``mac`` and a HELLO timer as ``net``.

Each span adds its duration to its parent's child time; a layer's self
time is the sum of its spans' durations minus their children.  Two
tracing costs are then taken out:

- what a span costs its parent beyond the call itself.  A tight loop of
  no-op calls measures about a fifth less than real calls pay (caches and
  branch history are warm in the loop), so it is measured on real calls
  instead: a second span around :data:`SHADOW_SITE`, a hot entry point in
  every workload, times exactly what the inner span costs its caller.
  It is subtracted once per child span.
- what tracing adds to each event: a traced ``schedule_at`` call and a
  dispatch through the event wrapper, each against its untraced form.
  These are measured on a scratch scheduler in short bursts every
  :data:`BURST_EVERY` events and subtracted from ``sim``, beyond the
  one-span cost already taken from the caller.  Sampling all through the
  pass matters: the costs double while a neighbour on the shared machine
  takes the core.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: Layer name -> (module, class, methods) whose calls are that layer's
#: spans.  Layers follow the ``repro`` packages; ``net.neighbors`` is the
#: HELLO-built neighbor table, split from the rest of ``net``.
ENTRY_POINTS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "sim": [("repro.sim.engine", "Scheduler", ("run",))],
    "phy": [(
        "repro.phy.channel", "Channel",
        ("start_transmission", "carrier_busy", "neighbors_in_range"),
    )],
    "mac": [(
        "repro.mac.csma", "CsmaCaMac",
        ("send", "on_frame_received", "on_frame_corrupted", "on_medium_state"),
    )],
    "net": [
        ("repro.net.host", "MobileHost",
         ("on_frame_received", "submit_rebroadcast", "initiate_broadcast")),
        ("repro.net.network", "Network", ("initiate_broadcast",)),
    ],
    "net.neighbors": [(
        "repro.net.neighbors", "NeighborTable",
        ("update_from_hello", "purge", "neighbor_count", "neighbor_ids",
         "neighbor_frozenset", "two_hop_neighbors", "variation"),
    )],
    "geometry": [("repro.geometry.coverage", "DiskSampler", ("uncovered_fraction",))],
    "mobility": [
        ("repro.mobility.store", "PositionStore", ("arrays_at", "position_of")),
        # The scalar kernel (capture runs) reads the models directly.
        ("repro.mobility.models", "StaticMobility", ("position",)),
        ("repro.mobility.models", "_SegmentedMobility", ("position",)),
    ],
    "metrics": [("repro.net.network", "Network", ("reachable_from",))],
    "faults": [
        ("repro.faults.loss", "BernoulliLoss", ("should_drop",)),
        ("repro.faults.loss", "GilbertElliottLoss", ("should_drop",)),
    ],
}

SCHEME_HOOKS = ("on_first_hear", "on_hear_again", "on_originate")

#: Where the per-span cost is measured: one MAC upcall per delivered
#: frame, so tens of thousands of samples even on the sparse map.
SHADOW_SITE = ("repro.mac.csma", "CsmaCaMac", "on_frame_received")
_SHADOW = "spans.shadow"

#: Events between two ``schedule_at`` calibration bursts, and calls per
#: burst side.
BURST_EVERY = 256
BURST_CALLS = 100

#: A span with the wrapped function's own signature, so that calls to it
#: and from it stay plain positional calls the interpreter can inline.
_SPAN_SOURCE = """
def span({params}):
    _span_times.append(0.0)
    _span_owners.append(_span_acc)
    _span_t0 = _span_perf()
    try:
        return _span_fn({args})
    finally:
        _span_dt = _span_perf() - _span_t0
        _span_owners.pop()
        _span_acc[0] += _span_dt - _span_times.pop()
        _span_acc[1] += 1
        _span_times[-1] += _span_dt
        _span_owners[-1][2] += 1
"""


def layer_of_module(module: str) -> str:
    """``repro.mac.csma`` -> ``mac``; ``repro.net.neighbors`` -> ``net.neighbors``."""
    if module == "repro.net.neighbors":
        return "net.neighbors"
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return "other"


def _resolve(module: str, cls: str) -> type:
    return getattr(importlib.import_module(module), cls)


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def patch_targets() -> List[Tuple[str, type, str]]:
    """Every ``(layer, class, method)`` a traced pass wraps.

    Only methods defined in the class's own ``__dict__`` are listed, so
    restoring them puts back exactly the objects that were there.
    """
    targets = []
    for layer, entries in ENTRY_POINTS.items():
        for module, cls_name, methods in entries:
            cls = _resolve(module, cls_name)
            targets.extend((layer, cls, m) for m in methods)
    collector = _resolve("repro.metrics.collector", "MetricsCollector")
    targets.extend(
        ("metrics", collector, name)
        for name in sorted(vars(collector))
        if name.startswith("on_") or name == "summarize"
    )
    importlib.import_module("repro.schemes")  # registers every scheme class
    base = _resolve("repro.schemes.base", "RebroadcastScheme")
    for cls in dict.fromkeys(_subclasses(base)):
        targets.extend(
            ("schemes", cls, name) for name in SCHEME_HOOKS if name in vars(cls)
        )
    return targets


def _signature_source(fn: Callable) -> Tuple[str, str, Dict[str, object]]:
    """``fn``'s parameter list, the matching call arguments, and defaults."""
    params, args, defaults = [], [], {}
    keyword_only_open = False
    for i, p in enumerate(inspect.signature(fn).parameters.values()):
        default = ""
        if p.default is not p.empty:
            defaults[f"_span_d{i}"] = p.default
            default = f"=_span_d{i}"
        if p.kind is p.VAR_POSITIONAL:
            params.append(f"*{p.name}")
            args.append(f"*{p.name}")
            keyword_only_open = True
        elif p.kind is p.VAR_KEYWORD:
            params.append(f"**{p.name}")
            args.append(f"**{p.name}")
        elif p.kind is p.KEYWORD_ONLY:
            if not keyword_only_open:
                params.append("*")
                keyword_only_open = True
            params.append(p.name + default)
            args.append(f"{p.name}={p.name}")
        else:
            params.append(p.name + default)
            args.append(p.name)
    return ", ".join(params), ", ".join(args), defaults


class SpanTracer:
    """Self time, span count and child-span count per layer.

    ``layers[name]`` is ``[self_seconds, spans, child_spans]`` (raw: the
    tracing costs are still in ``self_seconds``).
    """

    def __init__(self) -> None:
        self.layers: Dict[str, List[float]] = {}
        # Open spans: child time accumulated so far, and the owning layer.
        self._times: List[float] = [0.0]
        self._owners: List[List[float]] = [[0.0, 0, 0]]
        self._patched: List[Tuple[type, str, object]] = []
        self._callback_layers: Dict[object, List[float]] = {}
        #: Per burst: extra cost (ns) of a traced ``schedule_at`` call and
        #: of a traced event dispatch.
        self.schedule_samples: List[float] = []
        self.dispatch_samples: List[float] = []
        self._dispatched = [0]
        self._probes: Tuple[Callable, Callable, Callable, tuple] = ()

    def _acc(self, layer: str) -> List[float]:
        acc = self.layers.get(layer)
        if acc is None:
            acc = self.layers[layer] = [0.0, 0, 0]
        return acc

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as one span of ``layer`` per call."""
        params, args, namespace = _signature_source(fn)
        namespace.update(
            _span_fn=fn,
            _span_acc=self._acc(layer),
            _span_times=self._times,
            _span_owners=self._owners,
            _span_perf=time.perf_counter,
        )
        exec(_SPAN_SOURCE.format(params=params, args=args), namespace)
        return functools.update_wrapper(namespace["span"], fn)

    def _callback_acc(self, fn: Callable) -> List[float]:
        key = getattr(fn, "__func__", fn)
        acc = self._callback_layers.get(key)
        if acc is None:
            module = getattr(fn, "__module__", None) or ""
            acc = self._callback_layers[key] = self._acc(layer_of_module(module))
        return acc

    def _dispatch(self, burst_every: int) -> Callable:
        """The event callback every traced ``schedule_at`` substitutes."""
        times = self._times
        owners = self._owners
        perf = time.perf_counter
        burst = self.burst
        counter = self._dispatched

        def dispatch(acc, fn, *args):
            counter[0] += 1
            if counter[0] % burst_every == 0:
                # Counted as child time, so no layer's self time holds it.
                times[-1] += burst()
            times.append(0.0)
            owners.append(acc)
            t0 = perf()
            try:
                fn(*args)
            finally:
                dt = perf() - t0
                owners.pop()
                acc[0] += dt - times.pop()
                acc[1] += 1
                times[-1] += dt
                owners[-1][2] += 1

        return dispatch

    def _patch(self, cls: type, name: str, replacement: Callable) -> None:
        self._patched.append((cls, name, vars(cls)[name]))
        setattr(cls, name, replacement)

    def burst(self) -> float:
        """Sample the event costs once; returns the seconds it took."""
        raw_schedule, traced_schedule, dispatch, dispatch_args = self._probes
        scratch = _resolve("repro.sim.engine", "Scheduler")()
        raw_args = dispatch_args[2:]
        perf = time.perf_counter
        t0 = perf()
        for i in range(BURST_CALLS):
            raw_schedule(scratch, 0.0, _noop, i)
        t1 = perf()
        for i in range(BURST_CALLS):
            traced_schedule(scratch, 0.0, _noop, i)
        t2 = perf()
        for _ in range(BURST_CALLS):
            _noop(*raw_args)
        t3 = perf()
        for _ in range(BURST_CALLS):
            dispatch(*dispatch_args)
        t4 = perf()
        self.schedule_samples.append(((t2 - t1) - (t1 - t0)) / BURST_CALLS * 1e9)
        self.dispatch_samples.append(((t4 - t3) - (t3 - t2)) / BURST_CALLS * 1e9)
        return t4 - t0

    @property
    def ns_per_span(self) -> float:
        """What one span costs its parent, measured at :data:`SHADOW_SITE`."""
        shadow = self.layers[_SHADOW]
        return shadow[0] / shadow[1] * 1e9

    @property
    def ns_per_schedule(self) -> float:
        """What tracing adds to one ``schedule_at`` call (burst mean)."""
        return _trimmed_mean(self.schedule_samples)

    @property
    def ns_per_dispatch(self) -> float:
        """What tracing adds to running one event (burst mean)."""
        return _trimmed_mean(self.dispatch_samples)

    def traced_schedule_at(self, original: Callable, burst_every: int) -> Callable:
        """``Scheduler.schedule_at`` that routes callbacks through spans."""
        dispatch = self._dispatch(burst_every)
        callback_acc = self._callback_acc

        def schedule_at(sched, when, fn, *args, priority=0):
            return original(
                sched, when, dispatch, callback_acc(fn), fn, *args,
                priority=priority,
            )

        return self.wrap("sim", schedule_at)

    @contextmanager
    def installed(self) -> Iterator["SpanTracer"]:
        """Wrap every entry point for the ``with`` body, then restore them."""
        scheduler = _resolve("repro.sim.engine", "Scheduler")
        try:
            for layer, cls, name in patch_targets():
                self._patch(cls, name, self.wrap(layer, vars(cls)[name]))
            module, cls_name, name = SHADOW_SITE
            site = _resolve(module, cls_name)
            self._patch(site, name, self.wrap(_SHADOW, vars(site)[name]))

            original = vars(scheduler)["schedule_at"]
            # The burst's traced side runs through a private tracer (that
            # never bursts), so it adds nothing to this tracer's layers.
            private = SpanTracer()
            never = 2**62
            self._probes = (
                original,
                private.traced_schedule_at(original, never),
                private._dispatch(never),
                (private._acc("probe"), _noop, 0),
            )
            self._patch(
                scheduler, "schedule_at", self.traced_schedule_at(original, BURST_EVERY))
            self.burst()
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._patched:
            cls, name, original = self._patched.pop()
            setattr(cls, name, original)

    @property
    def patched(self) -> List[Tuple[type, str, object]]:
        return list(self._patched)

    def self_seconds(self, scheduled: int) -> Dict[str, float]:
        """Per-layer self time with the tracing costs removed.

        ``scheduled`` is how many events the traced pass scheduled.  A
        traced ``schedule_at`` call and an event dispatch are each one
        child span, already charged to their parents at
        :attr:`ns_per_span`; what they cost beyond that is taken from
        ``sim``.  The shadow span's self time is all tracing cost and is
        left out.
        """
        span = self.ns_per_span
        out = {
            layer: acc[0] - acc[2] * span * 1e-9
            for layer, acc in self.layers.items()
            if acc[1] and layer != _SHADOW
        }
        out["sim"] -= 1e-9 * (
            scheduled * (self.ns_per_schedule - span)
            + self._dispatched[0] * (self.ns_per_dispatch - span)
        )
        return out

    def calls(self) -> Dict[str, int]:
        return {
            layer: int(acc[1])
            for layer, acc in self.layers.items()
            if acc[1] and layer != _SHADOW
        }


def _trimmed_mean(samples: List[float]) -> float:
    """Mean with the extreme tenth cut at each end.

    A mean, not a median: the cost actually paid is a sum over calls, and
    bursts are spaced by event count, as calls are.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


def _noop(i):
    return None
