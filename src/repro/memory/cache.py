"""Set-associative cache tag array with LRU replacement.

Only tags are modeled — data always lives in the functional
:class:`~repro.memory.memsys.GlobalMemory` — so a cache answers exactly one
question per access: hit or miss (plus maintaining LRU state).  That is all
the timing model needs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from repro.sim.config import CacheConfig


class Cache:
    """LRU set-associative tag store."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        # Geometry hoisted out of the per-access path (num_sets is a
        # derived property on the config).
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._sets: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(self._num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _locate(self, line_addr: int) -> "tuple[OrderedDict, int]":
        line_index = line_addr // self._line_bytes
        set_index = line_index % self._num_sets
        tag = line_index // self._num_sets
        return self._sets[set_index], tag

    def access(self, line_addr: int, allocate: bool = True) -> bool:
        """Look up ``line_addr``; returns True on hit.

        On a miss with ``allocate``, the line is filled (evicting LRU).
        """
        # _locate, inline here and in invalidate: both run once per
        # memory transaction.
        line_index = line_addr // self._line_bytes
        cache_set = self._sets[line_index % self._num_sets]
        tag = line_index // self._num_sets
        if tag in cache_set:
            cache_set.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        if allocate:
            if len(cache_set) >= self._assoc:
                cache_set.popitem(last=False)
            cache_set[tag] = None
        return False

    def probe(self, line_addr: int) -> bool:
        """Non-destructive lookup (no fill, no LRU update, no counters)."""
        cache_set, tag = self._locate(line_addr)
        return tag in cache_set

    def invalidate(self, line_addr: int) -> bool:
        """Drop ``line_addr`` if present; returns True if it was cached."""
        line_index = line_addr // self._line_bytes
        cache_set = self._sets[line_index % self._num_sets]
        tag = line_index // self._num_sets
        if tag in cache_set:
            del cache_set[tag]
            return True
        return False

    def flush(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def occupancy(self) -> Dict[str, int]:
        """Lines resident / capacity, for tests and debugging."""
        resident = sum(len(s) for s in self._sets)
        capacity = self.config.num_sets * self.config.assoc
        return {"resident": resident, "capacity": capacity}
