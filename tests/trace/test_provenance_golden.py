"""Golden provenance checks per scheme family (one seeded broadcast each).

Every suppression decision a traced run records must be *explainable* from
its own provenance fields: the threshold must equal the scheme's threshold
function evaluated at the recorded neighbor count, and the verdict must be
the one the recorded ``observed``-vs-``threshold`` comparison implies.
This pins the provenance wiring per family -- a scheme that records a
verdict its own numbers contradict fails here.
"""

import pytest

from repro.net.host import HelloConfig
from repro.schemes.thresholds import (
    make_counter_threshold,
    make_location_threshold,
)
from repro.trace import DECISION_VERDICTS

from tests.trace.conftest import traced_run

FAMILIES = {
    "flooding": dict(scheme="flooding"),
    "adaptive-counter": dict(scheme="adaptive-counter"),
    "adaptive-location": dict(scheme="adaptive-location"),
    "neighbor-coverage": dict(scheme="neighbor-coverage"),
    "nc-dhi": dict(
        scheme="neighbor-coverage", hello=HelloConfig(dynamic=True)
    ),
}

TERMINAL = {"rebroadcast", "inhibit", "inhibit-immediate", "cancel-too-late"}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    """(name, result, decision dicts) for a single traced broadcast."""
    overrides = dict(FAMILIES[request.param])
    scheme = overrides.pop("scheme")
    result, trace = traced_run(scheme, seed=5, num_broadcasts=1, **overrides)
    decisions = list(trace.as_dicts("decision"))
    assert decisions, request.param
    assert trace.count("originate") == 1
    return request.param, result, trace, decisions


def by_verdict(decisions):
    out = {}
    for d in decisions:
        out.setdefault(d["verdict"], []).append(d)
    return out


def hosts_with(decisions, *verdicts):
    return {d["host"] for d in decisions if d["verdict"] in verdicts}


# ------------------------------------------------- structure (all families)


def test_verdicts_are_known(family):
    _, _, _, decisions = family
    assert {d["verdict"] for d in decisions} <= DECISION_VERDICTS


def test_every_receiver_makes_a_first_decision(family):
    """on_first_hear always records either an immediate inhibit or a
    defer -- exactly one per host that first-heard the packet."""
    name, _, trace, decisions = family
    receivers = {d["host"] for d in trace.as_dicts("receive")}
    first_decisions = [
        d for d in decisions
        if d["verdict"] in ("defer", "inhibit-immediate")
    ]
    assert {d["host"] for d in first_decisions} == receivers, name
    assert len(first_decisions) == len(receivers), name  # one each


def test_every_deferring_host_reaches_a_terminal_verdict(family):
    """The run drains fully, so nobody is left mid-assessment: each
    host's last recorded verdict is terminal."""
    name, _, _, decisions = family
    last = {}
    for d in decisions:
        last[d["host"]] = d["verdict"]
    assert set(last.values()) <= TERMINAL, (name, last)


def test_rebroadcasters_and_suppressed_partition_the_deciders(family):
    name, result, _, decisions = family
    rebroadcast = hosts_with(decisions, "rebroadcast")
    suppressed = hosts_with(decisions, "inhibit", "inhibit-immediate")
    suppressed -= rebroadcast  # cancel-too-late: the copy won the race
    assert not rebroadcast & suppressed, name
    key = next(iter(result.metrics.records))
    record = result.metrics.records[key]
    assert rebroadcast == record.rebroadcasters, name


def test_rad_wait_pairs_with_defer(family):
    name, result, trace, decisions = family
    waits = list(trace.as_dicts("rad-wait"))
    defers = [d for d in decisions if d["verdict"] == "defer"]
    assert len(waits) == len(defers), name
    max_jitter = 31 * result.config.phy.slot_time
    for w in waits:
        if name == "flooding":  # jitter_slots = 0: immediate submission
            assert w["jitter"] == 0.0
        else:
            assert 0.0 <= w["jitter"] <= max_jitter


# ------------------------------------------------------ per-family goldens


def families(*names):
    """Run a per-family test against ``names``' traced runs only."""
    return pytest.mark.parametrize("family", names, indirect=True)


@families("flooding")
def test_flooding_provenance_is_empty_and_never_suppresses(family):
    _, _, _, decisions = family
    # Flooding never inhibits -- but it does record "assess" steps for
    # duplicates heard while its own copy sits in the MAC queue.
    assert {d["verdict"] for d in decisions} <= {
        "defer", "assess", "rebroadcast"
    }
    for d in decisions:
        assert (d["n"], d["threshold"], d["observed"]) == (None, None, None)
    verdicts = by_verdict(decisions)
    assert len(verdicts["defer"]) == len(verdicts["rebroadcast"])


@families("adaptive-counter")
def test_adaptive_counter_provenance(family):
    _, _, _, decisions = family
    fn = make_counter_threshold()
    for d in decisions:
        assert d["n"] is not None and d["n"] >= 0
        assert d["threshold"] == fn(d["n"]), d
        assert isinstance(d["observed"], int) and d["observed"] >= 1
        if d["verdict"] in ("inhibit", "inhibit-immediate",
                            "cancel-too-late"):
            assert d["observed"] >= d["threshold"], d
        elif d["verdict"] in ("defer", "assess"):
            assert d["observed"] < d["threshold"], d
        # "rebroadcast": the threshold math above is all that must hold --
        # n is re-read at on-air time, after the last assessment.


@families("adaptive-location")
def test_adaptive_location_provenance(family):
    _, _, _, decisions = family
    fn = make_location_threshold()
    for d in decisions:
        assert d["n"] is not None and d["n"] >= 0
        assert d["threshold"] == fn(d["n"]), d
        assert 0.0 <= d["observed"] <= 1.0  # a fraction of pi r^2
        # Location logic inverts the comparison: inhibit when the
        # *additional coverage* falls below A(n).
        if d["verdict"] in ("inhibit", "inhibit-immediate",
                            "cancel-too-late"):
            assert d["observed"] < d["threshold"], d
        elif d["verdict"] in ("defer", "assess"):
            assert d["observed"] >= d["threshold"], d


@families("nc-dhi", "neighbor-coverage")
def test_neighbor_coverage_provenance(family):
    _, _, _, decisions = family
    for d in decisions:
        assert d["n"] is not None and d["n"] >= 0
        assert d["threshold"] == 0  # inhibit iff the pending set is empty
        assert isinstance(d["observed"], int) and d["observed"] >= 0
        if d["verdict"] in ("inhibit", "inhibit-immediate",
                            "cancel-too-late"):
            assert d["observed"] == 0, d
        elif d["verdict"] in ("defer", "assess"):
            assert d["observed"] > 0, d


@families("nc-dhi")
def test_nc_dhi_actually_used_dynamic_hellos(family):
    _, result, _, _ = family
    assert result.config.hello.dynamic
    assert result.hellos > 0
