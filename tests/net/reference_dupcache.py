"""The reference model of one host's duplicate cache: an ordered dict.

This is the cache each host kept before every host's cache moved into
:class:`repro.net.dupcache.DuplicateStore`, without its FIFO capacity
bound, which no run ever set.  Property tests drive the store and one
model per host through the same operations and compare every answer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable


class ReferenceCache:
    """Remembers packet keys one host has already processed."""

    def __init__(self) -> None:
        self._seen: "OrderedDict[Hashable, None]" = OrderedDict()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def add(self, key: Hashable) -> bool:
        """Record ``key``.  Returns ``True`` if it was new."""
        if key in self._seen:
            return False
        self._seen[key] = None
        return True

    def clear(self) -> None:
        self._seen.clear()

    def keys(self):
        return self._seen.keys()
