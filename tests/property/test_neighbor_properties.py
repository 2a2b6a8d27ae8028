"""Property-based tests: neighbor-table protocol invariants."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.neighbors import NeighborTable, absorb_hello
from repro.net.packets import HelloPacket

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
    table = NeighborTable(default_interval=default_interval)
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
    not before the query time (the rule in ``NeighborTable``'s docstring,
    evaluated with the same float expression)."""
    default_interval = 1.0
    table = NeighborTable(default_interval=default_interval)
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


NUM_TABLES = 4
SENDERS = range(1, 7)

bulk_streams = st.lists(
    st.tuples(
        st.sampled_from(SENDERS),                    # sender id
        st.floats(0.0, 3.0),                         # gap (0: same instant)
        st.one_of(st.none(), st.floats(0.5, 10.0)),  # announced interval
        st.one_of(st.none(), st.frozensets(st.integers(0, 9), max_size=5)),
        st.lists(st.integers(0, NUM_TABLES - 1), unique=True),  # receivers
        st.one_of(st.none(), st.floats(0.0, 25.0)),  # query offset
    ),
    max_size=50,
)
table_params = st.lists(
    st.tuples(st.floats(0.5, 5.0), st.floats(1.0, 3.0)),  # interval, mult
    min_size=NUM_TABLES, max_size=NUM_TABLES,
)


def observed(table, now):
    return (
        table.neighbor_ids(now),
        [table.two_hop_neighbors(sender) for sender in SENDERS],
        table.variation(now),
        table.hello_updates,
        table.expirations,
    )


@settings(max_examples=80)
@given(hellos=bulk_streams, params=table_params)
def test_bulk_absorb_matches_one_table_at_a_time(hellos, params):
    """A HELLO handed to several tables in one ``absorb_hello`` call, in
    any order, leaves each exactly as ``update_from_hello`` on that table
    alone would.

    Tables differ in default interval and timeout multiplier, and queries
    between HELLOs (at times up to well past every timeout) purge both
    sides alike, so expiries that a shorter announced interval brings
    forward are exercised too.
    """
    bulk = [NeighborTable(d, timeout_multiplier=m) for d, m in params]
    single = [NeighborTable(d, timeout_multiplier=m) for d, m in params]
    now = 0.0
    for sender, gap, interval, two_hop, receivers, query in hellos:
        now += gap
        hello = HelloPacket(
            sender_id=sender, neighbor_ids=two_hop, hello_interval=interval
        )
        absorb_hello([bulk[i] for i in receivers], hello, now)
        for i in sorted(receivers):
            single[i].update_from_hello(hello, now)
        if query is not None:
            for a, b in zip(bulk, single):
                assert observed(a, now + query) == observed(b, now + query)
            now += query
    for a, b in zip(bulk, single):
        assert observed(a, now) == observed(b, now)
        assert observed(a, now + 30.0) == observed(b, now + 30.0)
