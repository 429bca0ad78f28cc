"""A small immutable vector index with exact top-k cosine search."""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..faults import fault_point
from ..nlp.tokenize import word_tokenize
from .model import HashingEmbedding

__all__ = ["VectorEntry", "VectorStore"]

#: unit roundoff of float32 (round to nearest)
_F32_UNIT = 2.0**-24
#: rows gathered per block by :func:`_ordered_dot`
_RESCORE_ROWS = 1024
#: rows per tile of the float32 transpose's copy
_TILE = 256


@dataclass(frozen=True)
class VectorEntry:
    """One indexed document: id, source text and payload."""

    entry_id: str
    text: str
    metadata: dict[str, Any]


def _ordered_dot(
    matrix: np.ndarray, rows: np.ndarray, columns: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """The dot products of ``matrix``'s ``rows`` with the query vector whose
    nonzero ``columns`` (ascending) hold ``weights``, each summed in column
    order.

    The product at any other column is a zero, which leaves a running sum's
    value as it is.  ``np.add.accumulate`` defines each partial sum as the
    previous one plus the next product, one float64 addition each, so the
    result's bits depend on the operands alone: not on BLAS, its thread
    count, or the SIMD width of numpy's loops.  Rows are gathered a bounded
    block at a time, since a tie group can be every row.
    """
    if rows.size > _RESCORE_ROWS:
        return np.concatenate([
            _ordered_dot(matrix, rows[start : start + _RESCORE_ROWS], columns, weights)
            for start in range(0, rows.size, _RESCORE_ROWS)
        ])
    if not columns.size:
        return np.zeros(rows.size)
    products = matrix.take(rows, axis=0).take(columns, axis=1)
    products *= weights
    return np.add.accumulate(products, axis=1)[:, -1]


def _float32_scores(transposed: np.ndarray, columns: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Every row's score in float32, from the matrix's float32 transpose read
    only at the query vector's nonzero ``columns``, whose values are
    ``weights``.  ``np.einsum`` sums on the calling thread, in whatever
    order its loops choose: the margin below holds for any order."""
    return np.einsum("ij,i->j", transposed.take(columns, axis=0), weights.astype(np.float32))


def _float32_margin(terms: int) -> float:
    """A bound on ``|float32 score - exact score|`` for unit-norm operands.

    Rounding both operands to float32, and then ``terms`` products summed
    in float32 in any order, is off by at most ``gamma(terms + 2) *
    sum |r_i q_i|`` (Higham's bound with ``gamma(n) = n u / (1 - n u)``),
    and ``sum |r_i q_i| <= |r| |q| = 1``.  The slack covers norms a few
    ulps above 1, the float64 score's own rounding and float32 underflow.
    """
    spread = (terms + 2) * _F32_UNIT
    return spread / (1.0 - spread) * (1.0 + 1e-6) + 1e-12


class VectorStore:
    """Exact cosine-similarity search over embedded texts.

    The index is built once, in the constructor, from ``(id, text,
    metadata)`` triples and never changes afterwards, so concurrent
    searches need no lock.  Each text is tokenized once: the token lists
    are embedded together, in one :meth:`HashingEmbedding.embed_batch`
    call, into the rows of one unit-norm float64 matrix, and they fill the
    token store (below).  A row is bitwise ``embed`` of its text, which is
    what lets a query embedded by ``embed`` rank against it; that identity
    is checked by a test, since the two no longer share a loop.

    A search is brute force over every row, in two passes on the calling
    thread, with no BLAS call:

    * a float32 prefilter reads a transposed float32 copy of the matrix,
      only at the query's nonzero columns (about a fifth of them), with
      ``np.einsum``; its scores are within a proven margin ``b`` of the
      exact ones (:func:`_float32_margin`, about 3e-6 for a typical
      query);
    * every row whose float32 score is within ``2b`` of the k-th best
      one (about k rows) is re-scored in float64, summed in column order
      (:func:`_ordered_dot`), whose bits depend on no BLAS, SIMD width or
      thread count.  The k-th float32 score is at most the k-th exact
      score plus ``b``, and a row of the exact top k scores at least the
      k-th exact score, so its float32 score is at least the k-th float32
      score less ``2b``: no such row (tie group included) is left out.

    A search returns its hits as two lists, their rows and their exact
    scores, best first: by descending score, ties by row, cut at
    ``min_score``.  They are the first ``top_k`` rows of a full stable sort
    of the exact scores of every row; :meth:`entries` maps a row to its
    entry.

    The token store keeps each row's tokens for a lexical boost
    (:meth:`token_overlap`) as one sorted int64 array of ``row *
    len(vocabulary) + token id`` keys and a token-to-id map, instead of a
    set per entry; membership of a batch of (row, token) pairs is one
    ``searchsorted``.
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
        # occurrence, and the vocabulary shares the strings.
        canonical: dict[str, str] = {}
        token_lists = [
            list(map(canonical.setdefault, tokens, tokens))
            for tokens in map(word_tokenize, (text for _, text, _ in items))
        ]
        self._matrix = self.embedding.embed_batch(token_lists)
        # Copied a square tile at a time, which keeps both sides in cache.
        self._transposed = np.empty(self._matrix.shape[::-1], dtype=np.float32)
        for start in range(0, len(token_lists), _TILE):
            self._transposed[:, start : start + _TILE] = self._matrix[start : start + _TILE].T
        self._entries = tuple(
            VectorEntry(entry_id, text, dict(metadata)) for entry_id, text, metadata in items
        )
        # Keys grow row by row in one buffer and are sorted in place, since
        # whole-corpus temporaries would leave the allocator holding
        # megabytes once freed.  A token repeated in a row repeats its key,
        # which changes no membership test.
        self._vocabulary = vocabulary = {token: index for index, token in enumerate(canonical)}
        keys, width, token_id = array("q"), len(vocabulary), vocabulary.__getitem__
        for row, tokens in enumerate(token_lists):
            keys.extend(map((row * width).__add__, map(token_id, tokens)))
        keys.append(np.iinfo(np.int64).max)  # a sentinel above every key
        self._token_keys = np.frombuffer(keys, dtype=np.int64)
        self._token_keys.sort()

    def __len__(self) -> int:
        return len(self._entries)

    def search(
        self, query: str, top_k: int = 5, min_score: float = 0.0
    ) -> tuple[list[int], list[float]]:
        """The rows and cosine scores of the top-k entries for ``query``,
        best first.

        Args:
            min_score: drop hits scoring at or below this threshold.
        """
        if top_k <= 0:
            return [], []
        # Fault-injection site: latency spikes and transient errors on the
        # semantic retrieval path (the fallback the chaos plans lean on
        # while the symbolic path is being failed).
        fault_point("vector.search")
        total = len(self._entries)
        if total == 0:
            return [], []
        vector = self.embedding.embed(query)  # rows are unit-norm already
        columns = np.flatnonzero(vector)
        weights = vector[columns]
        coarse = _float32_scores(self._transposed, columns, weights)
        margin = _float32_margin(columns.size)
        floor = min_score - margin
        if top_k < total:
            kth = float(np.partition(coarse, total - top_k)[total - top_k])
            floor = max(floor, kth - 2 * margin)
        rows = np.flatnonzero(coarse >= np.float64(floor))
        scores = _ordered_dot(self._matrix, rows, columns, weights)
        order = np.argsort(-scores, kind="stable")[:top_k]
        rows, scores = rows[order].tolist(), scores[order].tolist()
        kept = sum(score > min_score for score in scores)  # a prefix: scores descend
        return rows[:kept], scores[:kept]

    def token_overlap(self, tokens: Iterable[str], rows: Sequence[int]) -> list[int]:
        """For each of ``rows``, how many of the distinct ``tokens`` its text has."""
        vocabulary = self._vocabulary
        ids = [vocabulary[token] for token in set(tokens) if token in vocabulary]
        if not ids:
            return [0] * len(rows)
        probe = np.add.outer([row * len(vocabulary) for row in rows], ids)
        keys = self._token_keys
        return (keys[keys.searchsorted(probe)] == probe).sum(axis=1).tolist()

    def entries(self) -> tuple[VectorEntry, ...]:
        """The indexed entries in row order."""
        return self._entries
