"""Shallow relevance scorer backing the LLMReranker retrieval stage."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from ..embed.model import HashingEmbedding
from ..nlp.similarity import counted_f1
from ..nlp.tokenize import STOPWORDS, word_tokenize

__all__ = ["RelevanceScorer"]


def _norm(vector: np.ndarray) -> float:
    """``np.linalg.norm`` of a float vector, which is ``sqrt(v.dot(v))``."""
    return math.sqrt(vector.dot(vector))


class RelevanceScorer:
    """Scores (query, passage) relevance on a 0-10 scale.

    Blends embedding cosine with content-word overlap — cheap, monotone,
    and deterministic; the properties the paper's "shallow LLM-based
    scorer" provides for context re-ranking.
    """

    def __init__(self, embedding: HashingEmbedding | None = None) -> None:
        self.embedding = embedding or HashingEmbedding()

    def score(self, query: str, passage: str) -> float:
        """Relevance of ``passage`` to ``query`` in [0, 10]."""
        return self.score_many(query, [passage])[0]

    def score_many(self, query: str, passages: list[str]) -> list[float]:
        """Relevance of each of ``passages`` to ``query`` in [0, 10].

        The query is tokenized, counted and embedded once for the whole
        list, and each passage is tokenized and embedded once.  The blend is
        ``0.45 * cosine + 0.40 * lexical + 0.15 * token F1``, each term
        computed as :func:`~repro.embed.model.cosine_similarity` and
        :func:`~repro.nlp.similarity.token_f1` compute it.
        """
        query_tokens = word_tokenize(query)
        query_content = [t for t in query_tokens if t not in STOPWORDS]
        query_counts = Counter(query_tokens)
        query_vector = self.embedding.embed_tokens(query_tokens)
        query_norm = _norm(query_vector)
        scores = []
        for passage in passages:
            if not passage.strip():
                scores.append(0.0)
                continue
            passage_tokens = word_tokenize(passage)
            passage_vector = self.embedding.embed_tokens(passage_tokens)
            passage_norm = _norm(passage_vector)
            if query_norm == 0.0 or passage_norm == 0.0:
                semantic = 0.0
            else:
                cosine = float(query_vector.dot(passage_vector) / (query_norm * passage_norm))
                semantic = max(0.0, cosine)
            if query_content:
                present = set(passage_tokens)
                lexical = sum(1 for t in query_content if t in present) / len(query_content)
            else:
                lexical = 0.0
            overlap_f1 = counted_f1(passage_tokens, query_tokens, query_counts)
            blended = 0.45 * semantic + 0.40 * lexical + 0.15 * overlap_f1
            scores.append(round(10.0 * min(1.0, blended), 3))
        return scores

    def rank(self, query: str, passages: list[str]) -> list[tuple[int, float]]:
        """Indices and scores of ``passages`` sorted by decreasing relevance."""
        scored = list(enumerate(self.score_many(query, passages)))
        return sorted(scored, key=lambda pair: (-pair[1], pair[0]))
