"""Duplicate-broadcast caches over one network-wide store."""

from repro.net.dupcache import DuplicateStore


def test_new_key_added():
    cache = DuplicateStore(1).caches[0]
    assert cache.add((1, 1)) is True
    assert (1, 1) in cache


def test_duplicate_detected():
    cache = DuplicateStore(1).caches[0]
    cache.add((1, 1))
    assert cache.add((1, 1)) is False


def test_distinct_sources_distinct_keys():
    cache = DuplicateStore(1).caches[0]
    assert cache.add((1, 5))
    assert cache.add((2, 5))
    assert cache.add((1, 6))
    assert len(cache) == 3


def test_unbounded_by_default():
    cache = DuplicateStore(1).caches[0]
    for i in range(10000):
        cache.add(i)
    assert len(cache) == 10000


def test_clear():
    cache = DuplicateStore(1).caches[0]
    cache.add("x")
    cache.clear()
    assert "x" not in cache
    assert len(cache) == 0


def test_hosts_sharing_a_key_keep_separate_answers():
    store = DuplicateStore(70)
    first, last = store.caches[0], store.caches[69]
    assert first.add((3, 1))
    assert (3, 1) not in last
    assert last.add((3, 1))
    assert first.add((3, 1)) is False
    assert len(store) == 1
    assert len(first) == len(last) == 1


def test_clear_leaves_other_hosts_and_drops_orphaned_keys():
    store = DuplicateStore(3)
    a, b, c = store.caches
    a.add("shared")
    b.add("shared")
    a.add("own")
    a.clear()
    assert "shared" in b and "shared" not in a and "own" not in a
    assert len(store) == 1  # "own" had no other holder
    assert len(b) == 1 and len(c) == 0
    assert a.add("own")


def test_discard_forgets_keys_in_every_cache():
    store = DuplicateStore(3)
    a, b, c = store.caches
    a.add("settled")
    b.add("settled")
    a.add("live")
    store.discard(["settled", "never-seen"])
    assert "settled" not in a and "settled" not in b
    assert "live" in a
    assert len(store) == 1 and len(a) == 1 and len(b) == 0 == len(c)


def test_clear_of_an_empty_cache_changes_nothing():
    store = DuplicateStore(2)
    store.caches[1].add("k")
    store.caches[0].clear()
    assert "k" in store.caches[1]
    assert len(store) == 1
