"""Thread-safe bounded LRU cache over full pipeline answers.

Cache keys bind two things so a hit is always safe to serve:

* the **normalized question** (casefolded, whitespace-collapsed) — trivial
  phrasing differences share an entry;
* the **graph statistics version** — a monotone counter the store bumps on
  every mutation, so writing to the graph invalidates every cached answer
  without any explicit flush.

The cache stores whatever value the caller hands it (ChatIYP stores
:class:`~repro.core.chatiyp.ChatResponse` objects) and returns it as-is;
callers that mutate returned values must copy first (ChatIYP does).
Each ChatIYP owns its own cache, so its configuration needs no part in
the key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

from ..faults import fault_point

__all__ = ["AnswerCache", "normalize_question"]


def normalize_question(question: str) -> str:
    """Canonical cache form: casefold + collapse internal whitespace."""
    return " ".join(question.casefold().split())


class AnswerCache:
    """Bounded LRU keyed by (normalized question, graph version)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @staticmethod
    def key(question: str, version: int) -> tuple:
        """Build the composite cache key for one lookup."""
        return (normalize_question(question), version)

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value (refreshing recency) or ``None``."""
        # Fault-injection site: a slow (or failing) cache tier in front of
        # the pipeline. Fires before the lock so injected latency never
        # serialises other readers.
        fault_point("cache.get")
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting the least-recent on overflow."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def entries(self) -> list[tuple[Hashable, Any]]:
        """Point-in-time ``(key, value)`` snapshot (recency untouched).

        For audits and debugging — the chaos harness sweeps it to verify
        no degraded answer was ever cached.
        """
        with self._lock:
            return list(self._entries.items())

    def stats(self) -> dict:
        """JSON-friendly snapshot for ``/metrics``."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": round(self._hits / lookups, 4) if lookups else 0.0,
            }
