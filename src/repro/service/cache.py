"""CellKey-keyed result cache over the artifact store.

Sweep-cell requests (``run_cell``) are pure functions of their
:class:`~repro.experiments.store.CellKey`, so the service never needs
to simulate the same cell twice: results are answered from a bounded
in-memory LRU first, then from the backing store — any
:class:`~repro.experiments.storage.StoreBackend`; a ``get`` against a
JSONL store is one dict lookup in its parsed-file cache, against a
sharded store a single-shard parse — and only on a genuine miss does
a simulation run, whose result is written through to both tiers, so
it survives a daemon restart.

The :class:`CacheStats` counters are the observable contract: the
tests (and the CI smoke) assert that a repeated identical request
increments a hit counter and **not** ``simulations``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.store import CellKey, StoredRun
from repro.experiments.storage import StoreBackend

#: Default LRU capacity: enough for a full paper-scale sweep matrix
#: to stay memory-resident, small enough to be harmless.
DEFAULT_CACHE_SIZE = 4096


@dataclass
class CacheStats:
    """Monotone counters, one per interesting event."""

    hits_memory: int = 0
    hits_store: int = 0
    misses: int = 0
    #: Simulations actually executed (pool submissions that ran).
    simulations: int = 0
    #: Requests that piggybacked on an identical in-flight simulation.
    coalesced: int = 0
    store_appends: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits_memory": self.hits_memory,
            "hits_store": self.hits_store,
            "misses": self.misses,
            "simulations": self.simulations,
            "coalesced": self.coalesced,
            "store_appends": self.store_appends,
        }


@dataclass
class ResultCache:
    """Two-tier (memory LRU → store backend) cell-result cache.

    The persistent tier is any ``StoreBackend`` — the single-file
    JSONL store or a sharded directory — reached through that class
    only (``get``/``append``), so the service is layout-blind.
    """

    store: Optional[StoreBackend] = None
    max_entries: int = DEFAULT_CACHE_SIZE
    stats: CacheStats = field(default_factory=CacheStats)
    _lru: OrderedDict = field(default_factory=OrderedDict)

    def __post_init__(self) -> None:
        if self.max_entries < 0:
            raise ValueError(
                f"max_entries must be >= 0, got {self.max_entries}"
            )

    def lookup(
        self, key: CellKey
    ) -> tuple[Optional[StoredRun], str]:
        """Cached run for *key* plus where it came from: ``"memory"``,
        ``"store"``, or ``"miss"`` (with ``None``)."""
        hit = self._lru.get(key)
        if hit is not None:
            self._lru.move_to_end(key)
            self.stats.hits_memory += 1
            return hit, "memory"
        if self.store is not None:
            stored = self.store.get(key)
            if stored is not None:
                self.stats.hits_store += 1
                self._remember(key, stored)
                return stored, "store"
        self.stats.misses += 1
        return None, "miss"

    def put(self, stored: StoredRun) -> None:
        """Write-through insert of a freshly simulated cell."""
        self._remember(stored.key, stored)
        if self.store is not None:
            self.store.append(stored)
            self.stats.store_appends += 1

    def _remember(self, key: CellKey, stored: StoredRun) -> None:
        self._lru[key] = stored
        self._lru.move_to_end(key)
        while len(self._lru) > self.max_entries:
            self._lru.popitem(last=False)

    def __len__(self) -> int:
        return len(self._lru)
