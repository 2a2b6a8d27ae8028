"""Duplicate-broadcast detection.

"We assume that a host can detect duplicate broadcast packets ... by
associating with each broadcast packet a tuple (source ID, sequence number)"
(paper Section 2.1).

Layout
------
One :class:`DuplicateStore` holds every host's cache: a dict from packet
key to a host bitset, an int whose bit ``h`` is set while host ``h``'s
cache holds the key.  A broadcast that reaches the whole network costs
one entry, not one per host.  A host's :class:`DuplicateCache` is its
handle on the store: it reads and writes only its own bit.  A broadcast
that has settled (no copy can still arrive) leaves every cache at once,
so a long run holds only the keys of the broadcasts still in flight.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable

__all__ = ["DuplicateCache", "DuplicateStore"]


class DuplicateStore:
    """Every host's duplicate cache, as one host bitset per packet key.

    Host ``h``'s cache is ``caches[h]``.  A key no cache holds has no
    entry, so ``len(store)`` counts the keys some host still holds.
    """

    __slots__ = ("caches", "_holders")

    def __init__(self, size: int) -> None:
        self._holders: Dict[Hashable, int] = {}
        self.caches = [
            DuplicateCache(self._holders, host_id) for host_id in range(size)
        ]

    def __len__(self) -> int:
        return len(self._holders)

    def discard(self, keys: Iterable[Hashable]) -> None:
        """Drop ``keys`` from every host's cache."""
        holders = self._holders
        for key in keys:
            holders.pop(key, None)


class DuplicateCache:
    """The packet keys one host has already processed: its bit of a
    :class:`DuplicateStore`."""

    __slots__ = ("_holders", "_bit")

    def __init__(self, holders: Dict[Hashable, int], host_id: int) -> None:
        self._holders = holders
        self._bit = 1 << host_id

    def __contains__(self, key: Hashable) -> bool:
        return self._holders.get(key, 0) & self._bit != 0

    def __len__(self) -> int:
        bit = self._bit
        return sum(1 for bits in self._holders.values() if bits & bit)

    def add(self, key: Hashable) -> bool:
        """Record ``key``.  Returns ``True`` if it was new."""
        holders = self._holders
        bits = holders.get(key, 0)
        if bits & self._bit:
            return False
        holders[key] = bits | self._bit
        return True

    def clear(self) -> None:
        """Forget every key; a key no other host holds leaves the store."""
        bit = self._bit
        holders = self._holders
        for key in [key for key, bits in holders.items() if bits & bit]:
            bits = holders[key] ^ bit
            if bits:
                holders[key] = bits
            else:
                del holders[key]
