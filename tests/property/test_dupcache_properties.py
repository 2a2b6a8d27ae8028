"""Property-based tests: the duplicate store against per-host caches."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.dupcache import DuplicateStore
from tests.net.reference_dupcache import ReferenceCache

NUM_HOSTS = 67
# A few low hosts that share most keys, and hosts past 30 and 64 bits.
HOSTS = st.sampled_from([0, 1, 2, 3, 31, 63, 64, 66])
# Twelve ``(source, seq)`` keys, so most keys reach many hosts.
KEYS = st.tuples(st.integers(0, 2), st.integers(0, 3))
OPERATIONS = st.lists(
    st.tuples(st.sampled_from(["add", "in", "clear", "len"]), HOSTS, KEYS),
    max_size=120,
)


@settings(max_examples=150)
@given(operations=OPERATIONS)
def test_store_answers_as_one_cache_per_host(operations):
    store = DuplicateStore(NUM_HOSTS)
    references = [ReferenceCache() for _ in range(NUM_HOSTS)]
    for op, host, key in operations:
        cache, reference = store.caches[host], references[host]
        if op == "add":
            assert cache.add(key) == reference.add(key)
        elif op == "in":
            assert (key in cache) == (key in reference)
        elif op == "clear":
            cache.clear()
            reference.clear()
        else:
            assert len(cache) == len(reference)
        # The store keeps exactly the keys some host still holds.
        held = set().union(*(r.keys() for r in references))
        assert len(store) == len(held)
    for cache, reference in zip(store.caches, references):
        assert len(cache) == len(reference)
        for source in range(3):
            for seq in range(4):
                key = (source, seq)
                assert (key in cache) == (key in reference)
