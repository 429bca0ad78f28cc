"""A small immutable vector index with exact top-k cosine search."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

import numpy as np

from ..faults import fault_point
from ..nlp.tokenize import word_tokenize
from .model import HashingEmbedding

__all__ = ["VectorEntry", "SearchHit", "VectorStore"]


@dataclass(frozen=True)
class VectorEntry:
    """One indexed document: id, source text, payload and its token set."""

    entry_id: str
    text: str
    metadata: dict[str, Any]
    tokens: frozenset[str]


@dataclass(frozen=True)
class SearchHit:
    """One search result with its cosine score and its row in the index."""

    entry_id: str
    text: str
    score: float
    metadata: dict[str, Any]
    row: int


class VectorStore:
    """Exact cosine-similarity search over embedded texts.

    Brute force on a dense matrix — IYP node-description corpora are a few
    thousand entries, where exact search is both simpler and faster than an
    approximate index.

    The index is built once, in the constructor, from ``(id, text,
    metadata)`` triples and never changes afterwards, so concurrent
    searches need no lock.  Each text is tokenized once: the token lists
    are embedded together, in one :meth:`HashingEmbedding.embed_batch`
    call, into the rows of one unit-norm matrix, and each is frozen into
    its entry's token set.  A row is bitwise ``embed`` of its text, which
    is what lets a query embedded by ``embed`` rank against it; that
    identity is checked by a test, since the two no longer share a loop.

    Ranking uses ``np.argpartition`` partial selection rather than a full
    sort: scores are exact and the returned order is identical to a full
    stable descending sort (ties broken by row order), but only the top
    candidates are ever ordered.
    """

    def __init__(
        self,
        items: Iterable[tuple[str, str, dict[str, Any]]],
        embedding: Optional[HashingEmbedding] = None,
    ) -> None:
        self.embedding = embedding or HashingEmbedding()
        items = list(items)
        # Every token list stays alive until the batch is embedded; one
        # string per distinct token keeps them from holding a copy per
        # occurrence, and the entries' token sets share the strings.
        canonical: dict[str, str] = {}
        token_lists = [
            list(map(canonical.setdefault, tokens, tokens))
            for tokens in map(word_tokenize, (text for _, text, _ in items))
        ]
        self._matrix = self.embedding.embed_batch(token_lists)
        self._entries = tuple(
            VectorEntry(entry_id, text, dict(metadata), frozenset(tokens))
            for (entry_id, text, metadata), tokens in zip(items, token_lists)
        )

    def __len__(self) -> int:
        return len(self._entries)

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
        matrix = self._matrix
        if matrix.shape[0] == 0:
            return []
        scores = matrix @ self.embedding.embed(query)  # rows are unit-norm already
        hits: list[SearchHit] = []
        for index in self._top_indices(scores, min(top_k, matrix.shape[0])):
            score = float(scores[index])
            if score <= min_score:
                break
            row = int(index)
            entry = self._entries[row]
            hits.append(
                SearchHit(entry.entry_id, entry.text, score, dict(entry.metadata), row)
            )
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

    def entries(self) -> tuple[VectorEntry, ...]:
        """The indexed entries in row order."""
        return self._entries
