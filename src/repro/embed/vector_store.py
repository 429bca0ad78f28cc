"""A small in-memory vector index with exact top-k cosine search."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..faults import fault_point
from .model import HashingEmbedding

__all__ = ["VectorEntry", "SearchHit", "VectorStore"]


@dataclass
class VectorEntry:
    """One indexed item: id, source text, payload and its vector."""

    entry_id: str
    text: str
    vector: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SearchHit:
    """One search result with its cosine score."""

    entry_id: str
    text: str
    score: float
    metadata: dict[str, Any]


class VectorStore:
    """Exact cosine-similarity search over embedded texts.

    Brute force on a dense matrix — IYP node-description corpora are a few
    thousand entries, where exact search is both simpler and faster than an
    approximate index.

    Thread safety: mutation (:meth:`add`/:meth:`add_batch`) and the lazy
    matrix rebuild run under an internal lock, and :meth:`search` ranks
    over an immutable ``(matrix, row_count)`` snapshot taken under that
    lock.  A concurrent writer invalidating ``_matrix`` mid-search can
    therefore neither crash a reader (``None`` never escapes the lock) nor
    truncate its hits (the snapshot's rows and the append-only entry list
    agree for every index the snapshot can produce).

    Ranking uses ``np.argpartition`` partial selection rather than a full
    sort: scores are exact and the returned order is identical to a full
    stable descending sort (ties broken by insertion order), but only the
    top candidates are ever ordered.
    """

    def __init__(self, embedding: Optional[HashingEmbedding] = None) -> None:
        self.embedding = embedding or HashingEmbedding()
        self._entries: list[VectorEntry] = []
        self._matrix: Optional[np.ndarray] = None
        self._by_id: dict[str, VectorEntry] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def add(self, entry_id: str, text: str, metadata: dict[str, Any] | None = None) -> None:
        """Index ``text`` under ``entry_id`` (ids must be unique)."""
        vector = self.embedding.embed(text)
        with self._lock:
            if entry_id in self._by_id:
                raise ValueError(f"duplicate vector-store id: {entry_id}")
            entry = VectorEntry(entry_id, text, vector, dict(metadata or {}))
            self._entries.append(entry)
            self._by_id[entry_id] = entry
            self._matrix = None  # invalidate

    def add_batch(self, items: list[tuple[str, str, dict[str, Any]]]) -> None:
        """Index many (id, text, metadata) triples in one embedding pass.

        Validates all ids up front (nothing is added on a duplicate) and
        embeds every text with :meth:`HashingEmbedding.embed_batch`, which is
        much faster than per-item :meth:`add` on corpus-sized inputs.
        """
        if not items:
            return
        # Embedding is the expensive part — do it outside the lock so a
        # bulk index never starves concurrent searches.
        vectors = self.embedding.embed_batch([text for _, text, _ in items])
        with self._lock:
            fresh: set[str] = set()
            for entry_id, _, _ in items:
                if entry_id in self._by_id or entry_id in fresh:
                    raise ValueError(f"duplicate vector-store id: {entry_id}")
                fresh.add(entry_id)
            for (entry_id, text, metadata), vector in zip(items, vectors):
                entry = VectorEntry(entry_id, text, vector, dict(metadata or {}))
                self._entries.append(entry)
                self._by_id[entry_id] = entry
            self._matrix = None  # invalidate; rebuilt lazily in one stack

    def _snapshot(self) -> tuple[np.ndarray, list[VectorEntry]]:
        """(matrix, entries) consistent pair; caller must not mutate either.

        The entry list is append-only, so sharing the live list is safe:
        every row index the matrix can yield maps to an entry that existed
        when the matrix was built, and existing entries are never reordered
        or rewritten in place.
        """
        with self._lock:
            if self._matrix is None:
                if self._entries:
                    self._matrix = np.stack([entry.vector for entry in self._entries])
                else:
                    self._matrix = np.zeros((0, self.embedding.dim), dtype=np.float64)
            return self._matrix, self._entries

    def search(
        self, query: str, top_k: int = 5, min_score: float = 0.0
    ) -> list[SearchHit]:
        """Top-k entries by cosine similarity to ``query``.

        Args:
            min_score: drop hits scoring at or below this threshold.
        """
        if top_k <= 0:
            return []
        # Fault-injection site: latency spikes and transient errors on the
        # semantic retrieval path (the fallback the chaos plans lean on
        # while the symbolic path is being failed).
        fault_point("vector.search")
        matrix, entries = self._snapshot()
        if matrix.shape[0] == 0:
            return []
        scores = matrix @ self.embedding.embed(query)  # rows are unit-norm already
        hits: list[SearchHit] = []
        for index in self._top_indices(scores, min(top_k, matrix.shape[0])):
            score = float(scores[index])
            if score <= min_score:
                break
            entry = entries[int(index)]
            hits.append(SearchHit(entry.entry_id, entry.text, score, dict(entry.metadata)))
            if len(hits) >= top_k:
                break
        return hits

    @staticmethod
    def _top_indices(scores: np.ndarray, limit: int) -> np.ndarray:
        """Indices of the ``limit`` best scores, full-sort-identical order.

        Descending score, ties in ascending index order (what a stable
        argsort of ``-scores`` yields).  May return more than ``limit``
        indices when the cut lands inside a tie group — the whole group is
        included so callers never see a tie split differently than the
        full sort would order it.
        """
        total = int(scores.shape[0])
        if limit >= total:
            return np.argsort(-scores, kind="stable")
        partition = np.argpartition(-scores, limit - 1)[:limit]
        threshold = scores[partition].min()
        greater = np.nonzero(scores > threshold)[0]
        if greater.size:
            greater = greater[np.argsort(-scores[greater], kind="stable")]
        equal = np.nonzero(scores == threshold)[0]  # ascending index = tie order
        return np.concatenate([greater, equal])

    def entries(self) -> list[VectorEntry]:
        """Stable snapshot of the indexed entries (do not mutate them)."""
        with self._lock:
            return list(self._entries)

    def get(self, entry_id: str) -> Optional[VectorEntry]:
        """Fetch one entry by id in O(1) (None when missing)."""
        with self._lock:
            return self._by_id.get(entry_id)
