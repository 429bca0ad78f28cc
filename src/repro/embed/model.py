"""Deterministic text embeddings (the stand-in for an embedding API).

``HashingEmbedding`` hashes word and character n-grams into a fixed-size
vector (the classic feature-hashing trick).  It is deterministic across
processes (hashes via ``hashlib``, not Python's salted ``hash``), fast, and
monotone in lexical overlap — which is all the vector retriever and the
BERTScore implementation need.

``ContextualEmbedding`` produces per-token vectors blended with their
neighbours, giving token representations that depend on context — the
property BERTScore exploits (and the reason it shows a ceiling effect on
narrow linguistic variation).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

from ..nlp.ngrams import char_ngrams
from ..nlp.tokenize import word_tokenize

__all__ = ["HashingEmbedding", "ContextualEmbedding", "cosine_similarity"]


@lru_cache(maxsize=131072)
def _stable_bucket(token: str, dim: int, salt: str) -> tuple[int, float]:
    """Map a token to (bucket index, ±1 sign) deterministically."""
    digest = hashlib.md5(f"{salt}:{token}".encode()).digest()
    index = int.from_bytes(digest[:4], "little") % dim
    sign = 1.0 if digest[4] % 2 == 0 else -1.0
    return index, sign


@lru_cache(maxsize=65536)
def _token_buckets(token: str, dim: int, char_weight: float) -> tuple[tuple[int, float], ...]:
    """Pre-weighted (index, weight) pairs for one token: word bucket + char trigrams.

    Corpus vocabularies repeat tokens heavily, so caching the md5 bucketing per
    token turns batch embedding into mostly array adds.
    """
    index, sign = _stable_bucket(token, dim, "word")
    pairs = [(index, sign)]
    for gram in char_ngrams(token, 3):
        index, sign = _stable_bucket(gram, dim, "char")
        pairs.append((index, sign * char_weight))
    return tuple(pairs)


def cosine_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector is all-zero."""
    norm_left = float(np.linalg.norm(left))
    norm_right = float(np.linalg.norm(right))
    if norm_left == 0.0 or norm_right == 0.0:
        return 0.0
    return float(np.dot(left, right) / (norm_left * norm_right))


class HashingEmbedding:
    """Sentence embedding via hashed word unigrams/bigrams + char trigrams."""

    def __init__(self, dim: int = 256, char_weight: float = 0.5) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.char_weight = char_weight

    def embed(self, text: str) -> np.ndarray:
        """Embed ``text`` into a unit-norm vector (zero vector for empty)."""
        vector = np.zeros(self.dim, dtype=np.float64)
        self.embed_tokens_into(word_tokenize(text), vector)
        return vector

    def embed_tokens_into(self, tokens: list[str], out: np.ndarray) -> None:
        """Embed an already tokenized text into the zeroed vector ``out``.

        Adds the feature weights, then scales ``out`` to unit norm (an
        all-zero ``out`` stays zero).  :meth:`embed` and the vector index's
        matrix rows both run through here, so they are bitwise identical.
        """
        dim = self.dim
        char_weight = self.char_weight
        for token in tokens:
            for index, weight in _token_buckets(token, dim, char_weight):
                out[index] += weight
        for left, right in zip(tokens, tokens[1:]):
            index, sign = _stable_bucket(f"{left}_{right}", dim, "bigram")
            out[index] += sign * 0.7
        norm = np.linalg.norm(out)
        if norm > 0:
            out /= norm

    def similarity(self, left: str, right: str) -> float:
        """Cosine similarity of two texts' embeddings."""
        return cosine_similarity(self.embed(left), self.embed(right))


class ContextualEmbedding:
    """Per-token embeddings blended with a ±``window`` neighbourhood.

    The blending makes two occurrences of the same word embed differently
    in different sentences — a cheap, deterministic analogue of contextual
    (BERT-style) token representations.

    ``common_weight`` adds a shared "language" component to every token
    vector, emulating the well-documented anisotropy of BERT embeddings:
    any two fluent-English tokens are fairly similar, which floors
    BERTScore for unrelated-but-fluent answers and produces the ceiling
    effect the poster reports.
    """

    def __init__(
        self,
        dim: int = 128,
        window: int = 2,
        context_weight: float = 0.35,
        common_weight: float = 1.15,
    ):
        self.dim = dim
        self.window = window
        self.context_weight = context_weight
        self.common_weight = common_weight
        self._base = HashingEmbedding(dim=dim)
        common = np.zeros(dim, dtype=np.float64)
        index, sign = _stable_bucket("__language__", dim, "common")
        common[index] = sign
        index2, sign2 = _stable_bucket("__fluency__", dim, "common")
        common[index2] = sign2
        self._common = common / np.linalg.norm(common)

    def token_embeddings(self, text: str) -> tuple[list[str], np.ndarray]:
        """Return (tokens, (n, dim) matrix of contextual token vectors)."""
        tokens = word_tokenize(text)
        if not tokens:
            return [], np.zeros((0, self.dim), dtype=np.float64)
        static = np.stack([self._token_vector(token) for token in tokens])
        contextual = np.array(static)
        for i in range(len(tokens)):
            lo = max(0, i - self.window)
            hi = min(len(tokens), i + self.window + 1)
            neighbourhood = static[lo:hi].mean(axis=0)
            contextual[i] = (1 - self.context_weight) * static[i] + (
                self.context_weight * neighbourhood
            )
        norms = np.linalg.norm(contextual, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return tokens, contextual / norms

    def _token_vector(self, token: str) -> np.ndarray:
        vector = np.zeros(self.dim, dtype=np.float64)
        index, sign = _stable_bucket(token, self.dim, "tok")
        vector[index] += 2.0 * sign
        for gram in char_ngrams(token, 3):
            index, sign = _stable_bucket(gram, self.dim, "tok3")
            vector[index] += sign
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        return vector + self.common_weight * self._common
