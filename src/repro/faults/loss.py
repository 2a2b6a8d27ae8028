"""Stateful link-loss processes, composable with ``Channel.drop_predicate``.

Both models expose ``should_drop(sender_id, receiver_id) -> bool``, the same
signature the channel consults once per (frame, in-range receiver that is
not itself transmitting).  Each
directed link draws from its own deterministic RNG substream (derived from
the fault seed and the link identity), so the loss pattern on link A->B does
not depend on how many frames crossed link C->D -- the per-link sequences
are reproducible even when scheme behaviour changes traffic elsewhere.
"""

from __future__ import annotations

from typing import Dict, Tuple

import random

from repro.faults.plan import BernoulliLossSpec, GilbertElliottLossSpec
from repro.sim.randomness import RandomStreams

__all__ = ["BernoulliLoss", "GilbertElliottLoss", "make_loss_model"]


class _LinkLoss:
    """Per-directed-link RNG substreams, each made at the link's first
    frame."""

    def __init__(self, spec, streams: RandomStreams) -> None:
        self.spec = spec
        self._streams = streams
        self._rngs: Dict[Tuple[int, int], random.Random] = {}

    def _rng(self, sender_id: int, receiver_id: int) -> random.Random:
        key = (sender_id, receiver_id)
        rng = self._rngs.get(key)
        if rng is None:
            rng = self._streams.stream(f"link/{sender_id}->{receiver_id}")
            self._rngs[key] = rng
        return rng


class BernoulliLoss(_LinkLoss):
    """Memoryless per-frame loss with probability ``p`` on every link."""

    def should_drop(self, sender_id: int, receiver_id: int) -> bool:
        if self.spec.p <= 0.0:
            return False
        return self._rng(sender_id, receiver_id).random() < self.spec.p


class GilbertElliottLoss(_LinkLoss):
    """Per-link two-state burst-loss chain (Gilbert-Elliott).

    The chain advances once per frame observed on the link; state persists
    between frames, which is what makes losses come in bursts.  A link's
    chain starts in the good state.
    """

    def __init__(
        self, spec: GilbertElliottLossSpec, streams: RandomStreams
    ) -> None:
        super().__init__(spec, streams)
        self._bad: Dict[Tuple[int, int], bool] = {}

    def link_state(self, sender_id: int, receiver_id: int) -> str:
        """Current chain state of the directed link (for tests)."""
        return "bad" if self._bad.get((sender_id, receiver_id)) else "good"

    def should_drop(self, sender_id: int, receiver_id: int) -> bool:
        key = (sender_id, receiver_id)
        rng = self._rng(sender_id, receiver_id)
        bad = self._bad.get(key, False)
        # Advance the chain one step, then sample loss in the new state.
        if bad:
            if rng.random() < self.spec.r:
                bad = False
        else:
            if rng.random() < self.spec.p:
                bad = True
        self._bad[key] = bad
        loss_p = self.spec.loss_bad if bad else self.spec.loss_good
        if loss_p <= 0.0:
            return False
        if loss_p >= 1.0:
            return True
        return rng.random() < loss_p


def make_loss_model(spec, streams: RandomStreams):
    """Instantiate the right loss model for a plan's loss spec."""
    if isinstance(spec, BernoulliLossSpec):
        return BernoulliLoss(spec, streams)
    if isinstance(spec, GilbertElliottLossSpec):
        return GilbertElliottLoss(spec, streams)
    raise TypeError(f"unknown loss spec {spec!r}")
