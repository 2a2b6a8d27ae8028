"""Broadcast schemes: the paper's contributions, [15] baselines, and a zoo.

===================  ==========================================  ==========
Registry name        Scheme                                      Origin
===================  ==========================================  ==========
flooding             blind flooding                              baseline
counter              fixed-threshold counter ``C``               [15]
distance             fixed-threshold distance ``D``              [15]
location             fixed-threshold additional coverage ``A``   [15]
adaptive-counter     ``C(n)`` of neighbor count                  this paper
adaptive-location    ``A(n)`` of neighbor count                  this paper
neighbor-coverage    two-hop pending-set suppression             this paper
gossip               rebroadcast with fixed probability ``p``    literature
adaptive-gossip      gossip with ``p(n)`` of neighbor count      literature
counter-gossip       coin gate ``p`` + counter gate ``C``        literature
self-pruning         one-shot pending-set pruning at S1          literature
===================  ==========================================  ==========

Each scheme class registers itself with the plugin registry
(:mod:`repro.schemes.registry`) via the ``@register_scheme`` decorator,
declaring its constructor parameter schema and provenance;
:data:`SCHEME_REGISTRY` maps registry names to those
:class:`~repro.schemes.registry.SchemeSpec` entries.  :func:`make_scheme`
builds a configured instance from a registry name plus keyword parameters
(e.g. ``make_scheme("counter", threshold=4)``), schema-validating the
parameters first; every parameter is a plain value, so a scenario that
names one can be digested, cached and sent to a worker process.
"""

from __future__ import annotations

from repro.schemes.base import (
    DeferredRebroadcastScheme,
    PendingBroadcast,
    RebroadcastScheme,
    SchemeHost,
)
from repro.schemes.registry import (
    SCHEME_REGISTRY,
    ParamSpec,
    SchemeSpec,
    get_spec,
    make_scheme,
    register_scheme,
)

# Importing the scheme modules runs their @register_scheme decorators and
# populates SCHEME_REGISTRY.  Order fixes the registry's listing order:
# paper schemes first, zoo variants after.
from repro.schemes.flooding import FloodingScheme
from repro.schemes.counter import CounterScheme
from repro.schemes.distance import DistanceScheme
from repro.schemes.location import LocationScheme
from repro.schemes.adaptive_counter import AdaptiveCounterScheme
from repro.schemes.adaptive_location import AdaptiveLocationScheme
from repro.schemes.neighbor_coverage import NeighborCoverageScheme
from repro.schemes.gossip import AdaptiveGossipScheme, GossipScheme
from repro.schemes.hybrid import CounterGossipScheme
from repro.schemes.self_pruning import SelfPruningScheme
from repro.schemes.thresholds import (
    make_counter_threshold,
    make_location_threshold,
)

__all__ = [
    "RebroadcastScheme",
    "DeferredRebroadcastScheme",
    "PendingBroadcast",
    "SchemeHost",
    "FloodingScheme",
    "CounterScheme",
    "DistanceScheme",
    "LocationScheme",
    "AdaptiveCounterScheme",
    "AdaptiveLocationScheme",
    "NeighborCoverageScheme",
    "GossipScheme",
    "AdaptiveGossipScheme",
    "CounterGossipScheme",
    "SelfPruningScheme",
    "ParamSpec",
    "SchemeSpec",
    "SCHEME_REGISTRY",
    "register_scheme",
    "get_spec",
    "make_scheme",
    "make_counter_threshold",
    "make_location_threshold",
]
