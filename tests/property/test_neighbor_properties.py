"""Property-based tests: neighbor-table protocol invariants."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import neighbors
from repro.net.neighbors import NeighborStore
from repro.net.packets import HelloPacket
from tests.net.reference_neighbors import ReferenceTable

events = st.lists(
    st.tuples(
        st.integers(1, 6),                   # sender id
        st.floats(0.05, 2.0),                # time gap to previous event
        st.one_of(st.none(), st.floats(0.5, 10.0)),  # announced interval
    ),
    max_size=40,
)


@settings(max_examples=60)
@given(hellos=events, default_interval=st.floats(0.5, 5.0))
def test_table_invariants_under_random_hello_streams(hellos, default_interval):
    table = NeighborStore(7, default_interval=default_interval).tables[0]
    now = 0.0
    last_heard = {}
    for sender, gap, interval in hellos:
        now += gap
        table.update_from_hello(
            HelloPacket(sender_id=sender, hello_interval=interval), now=now
        )
        last_heard[sender] = (now, interval or default_interval)

        # Invariant 1: a just-heard neighbor is always present.
        assert sender in table.neighbor_ids(now)
        # Invariant 2: every listed neighbor is within its timeout.
        for neighbor in table.neighbor_ids(now):
            heard_at, announced = last_heard[neighbor]
            assert now - heard_at <= 2.0 * announced + 1e-9
        # Invariant 3: variation is non-negative and finite.
        nv = table.variation(now)
        assert nv >= 0.0
        assert nv < float("inf")


@settings(max_examples=40)
@given(
    hellos=events,
    check_after=st.floats(0.0, 50.0),
)
# One ulp on the boundary: ``final - heard_at`` rounds to
# 2.0000000000000004 while ``heard_at + 2.0`` rounds up to ``final``, so a
# subtraction-based oracle disagrees with the table's documented rule.
@example(
    hellos=[
        (1, 1.9400973041528227, None),
        (1, 0.6463474345863487, None),
        (1, 0.5451687743111583, None),
        (1, 0.24209484998117237, None),
    ],
    check_after=2.0,
)
def test_purge_is_exactly_the_timeout_rule(hellos, check_after):
    """An entry survives exactly while ``last_heard + 2 * interval`` is
    not before the query time (the rule in ``NeighborStore``'s docstring,
    evaluated with the same float expression)."""
    default_interval = 1.0
    table = NeighborStore(7, default_interval=default_interval).tables[0]
    now = 0.0
    last = {}
    for sender, gap, interval in hellos:
        now += gap
        table.update_from_hello(
            HelloPacket(sender_id=sender, hello_interval=interval), now=now
        )
        last[sender] = (now, interval or default_interval)
    final = now + check_after
    alive = table.neighbor_ids(final)
    for sender, (heard_at, announced) in last.items():
        expected_alive = not heard_at + 2.0 * announced < final
        assert (sender in alive) == expected_alive, (
            sender, final - heard_at, announced,
        )


NUM_HOSTS = 16

#: One step of a stream: a HELLO (bulk or one receiver at a time), a
#: query of one table, or a crash that wipes one table.
hello_steps = st.tuples(
    st.just("hello"),
    st.integers(0, NUM_HOSTS - 1),                   # sender
    st.floats(0.0, 3.0),                             # gap (0: same instant)
    st.one_of(st.none(), st.floats(0.5, 10.0)),      # announced interval
    st.one_of(st.none(), st.frozensets(st.integers(0, NUM_HOSTS - 1),
                                       max_size=6)),  # announced set
    st.permutations(range(NUM_HOSTS)),               # receiver order
    st.integers(0, NUM_HOSTS),                       # receivers kept
    st.booleans(),                                   # bulk or one by one
)
query_steps = st.tuples(st.just("query"), st.floats(0.0, 25.0))  # offset
crash_steps = st.tuples(st.just("crash"), st.integers(0, NUM_HOSTS - 1))
streams = st.lists(
    st.one_of(hello_steps, hello_steps, query_steps, crash_steps),
    max_size=60,
)


def observed(table, now):
    """Every query a table answers, and its counters, at ``now``.

    ``purge`` comes first, so its return is compared and the queries
    after it see the purged table.
    """
    return (
        table.neighbor_ids(),
        table.neighbor_count(),
        table.purge(now),
        table.neighbor_ids(now),
        table.neighbor_frozenset(now),
        table.neighbor_count(now),
        [table.two_hop_neighbors(h) for h in range(NUM_HOSTS)],
        [table.knows(h) for h in range(NUM_HOSTS)],
        table.variation(now),
        table.hello_updates,
        table.expirations,
    )


#: Where frames and purges switch from entry-by-entry Python to
#: whole-array operations: everything in numpy, a low cut, the library's.
VECTOR_CUTS = {"all-numpy": 1, "cut-4": 4, "library-cut": neighbors._VECTOR_FROM}


@pytest.mark.parametrize("cut", list(VECTOR_CUTS.values()), ids=list(VECTOR_CUTS))
def test_store_matches_reference_tables(cut):
    with mock.patch.object(neighbors, "_VECTOR_FROM", cut):
        check_store_matches_reference_tables()


ALL_HOSTS = list(range(NUM_HOSTS))


@settings(max_examples=100, deadline=None)
@given(
    steps=streams,
    default_interval=st.floats(0.5, 5.0),
    multiplier=st.floats(1.0, 3.0),
)
# Host 1 announces a 2 s interval to host 0, then sends a frame with the
# default 1 s: the refresh brings the expiry forward, so the bound must
# drop although this frame announces nothing.
@example(
    steps=[
        ("hello", 1, 0.0, 2.0, None, ALL_HOSTS, 1, False),
        ("hello", 1, 0.0, None, None, ALL_HOSTS, 1, True),
        ("query", 2.0),
    ],
    default_interval=1.0,
    multiplier=1.0,
)
def check_store_matches_reference_tables(steps, default_interval, multiplier):
    """The store answers every query exactly as one dict table per host.

    HELLOs reach random receiver subsets in random order, through
    :meth:`NeighborStore.absorb` or one table's ``update_from_hello``.
    Announced intervals grow and shrink around the default, so a refresh
    can bring an expiry forward; queries of every table jump up to well
    past every timeout, and some HELLOs refresh entries that have
    expired but not been purged.  A crash resets a store table and
    replaces a reference one.
    """
    store = NeighborStore(
        NUM_HOSTS, default_interval, timeout_multiplier=multiplier
    )
    reference = [
        ReferenceTable(default_interval, timeout_multiplier=multiplier)
        for _ in range(NUM_HOSTS)
    ]
    now = 0.0
    for step in steps:
        if step[0] == "hello":
            _, sender, gap, interval, two_hop, order, kept, bulk = step
            now += gap
            hello = HelloPacket(
                sender_id=sender, neighbor_ids=two_hop,
                hello_interval=interval,
            )
            receivers = [h for h in order[:kept] if h != sender]
            if bulk:
                store.absorb(hello, np.array(receivers, dtype=np.intp), now)
            else:
                for host_id in receivers:
                    store.tables[host_id].update_from_hello(hello, now)
            for host_id in receivers:
                reference[host_id].update_from_hello(hello, now)
        elif step[0] == "query":
            now += step[1]
            for table, ref in zip(store.tables, reference):
                assert observed(table, now) == observed(ref, now)
        else:
            _, host_id = step
            store.tables[host_id].reset()
            reference[host_id] = ReferenceTable(
                default_interval, timeout_multiplier=multiplier
            )
    for later in (now, now + 30.0):
        for table, ref in zip(store.tables, reference):
            assert observed(table, later) == observed(ref, later)
