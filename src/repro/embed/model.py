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
import math
from array import array
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from ..nlp.ngrams import char_ngrams
from ..nlp.tokenize import word_tokenize

__all__ = ["HashingEmbedding", "ContextualEmbedding", "cosine_similarity"]

#: documents summed per ``np.bincount`` call in ``HashingEmbedding.embed_batch``.
#: It bounds the batch's temporaries to tens of KB: with 256-row chunks a
#: process that rebuilt the medium index kept about 4.5 MB more resident
#: memory, and chunks of 16 to 256 rows build equally fast.
_CHUNK_ROWS = 16
_BIGRAM_WEIGHT = 0.7


@lru_cache(maxsize=131072)
def _stable_bucket(token: str, dim: int, salt: str) -> tuple[int, float]:
    """Map a token to (bucket index, ±1 sign) deterministically."""
    digest = hashlib.md5(f"{salt}:{token}".encode()).digest()
    index = int.from_bytes(digest[:4], "little") % dim
    sign = 1.0 if digest[4] % 2 == 0 else -1.0
    return index, sign


@lru_cache(maxsize=65536)
def _token_buckets(token: str, dim: int, char_weight: float) -> tuple[bytes, bytes]:
    """One token's pre-weighted features, word bucket then char trigrams: their
    bucket indices packed as C ints and their weights as doubles.

    Corpus vocabularies repeat tokens heavily, so caching the md5 bucketing per
    token turns embedding into mostly array adds; packed, a text's features
    reach numpy by joining bytes rather than converting Python numbers.
    """
    index, sign = _stable_bucket(token, dim, "word")
    indices, weights = array("i", [index]), array("d", [sign])
    for gram in char_ngrams(token, 3):
        index, sign = _stable_bucket(gram, dim, "char")
        indices.append(index)
        weights.append(sign * char_weight)
    return indices.tobytes(), weights.tobytes()


@lru_cache(maxsize=131072)
def _bigram_bucket(left: str, right: str, dim: int) -> tuple[bytes, bytes]:
    """The adjacent pair's pre-weighted feature, packed as :func:`_token_buckets`
    packs one.  Keyed by the pair, so a lookup builds no joined string; the
    joined string is hashed uncached, since this cache holds the result."""
    index, sign = _stable_bucket.__wrapped__(f"{left}_{right}", dim, "bigram")
    return array("i", [index]).tobytes(), array("d", [sign * _BIGRAM_WEIGHT]).tobytes()


_INDEX_SIZE = array("i").itemsize


def _packed(features: Sequence[bytes], dtype) -> np.ndarray:
    """Packed features, joined into one read-only array of ``dtype``."""
    return np.frombuffer(b"".join(features), dtype=dtype)


class _Vocabulary:
    """A batch's distinct tokens and bigrams, each bucketed once, and the
    feature stream of a run of its documents."""

    def __init__(self, token_lists: Sequence[Sequence[str]], dim: int, char_weight: float):
        self.dim = dim
        self.ids = {token: index for index, token in
                    enumerate(dict.fromkeys(chain.from_iterable(token_lists)))}
        self.words = list(self.ids)
        buckets = [_token_buckets(token, dim, char_weight) for token in self.words]
        self.index = _packed([indices for indices, _ in buckets], np.intc).astype(np.intp)
        self.weight = _packed([weights for _, weights in buckets], np.float64)
        self.count = np.fromiter((len(indices) // _INDEX_SIZE for indices, _ in buckets),
                                 dtype=np.intp, count=len(buckets))
        self.start = np.cumsum(self.count) - self.count
        # bigram key (left id * vocabulary size + right id) -> packed feature
        self.bigrams: dict[int, tuple[bytes, bytes]] = {}

    def _bigram(self, key: int) -> tuple[bytes, bytes]:
        left, right = divmod(key, len(self.words))
        bucket = _bigram_bucket(self.words[left], self.words[right], self.dim)
        self.bigrams[key] = bucket
        return bucket

    def features(self, documents: Sequence[Sequence[str]]) -> tuple[np.ndarray, np.ndarray]:
        """The ``(row * dim + bucket, weight)`` stream of ``documents``, in
        summation order: every token feature, then every bigram."""
        ids = np.fromiter(map(self.ids.__getitem__, chain.from_iterable(documents)),
                          dtype=np.intp, count=sum(map(len, documents)))
        lengths = np.fromiter(map(len, documents), dtype=np.intp, count=len(documents))
        offsets = np.repeat(np.arange(len(documents), dtype=np.intp) * self.dim, lengths)

        # Word and char-trigram features, gathered per token occurrence.
        counts = self.count[ids]
        ends = np.cumsum(counts)
        positions = np.repeat(self.start[ids] - ends + counts, counts)
        positions += np.arange(positions.size, dtype=np.intp)
        token_bins = self.index[positions]
        token_bins += np.repeat(offsets, counts)
        token_weights = self.weight[positions]

        # Bigrams: adjacent tokens of one document, each distinct pair
        # bucketed once per batch.
        same_document = offsets[1:] == offsets[:-1]
        size = len(self.words)
        keys, inverse = np.unique(ids[:-1][same_document] * size + ids[1:][same_document],
                                  return_inverse=True)
        bigrams = self.bigrams
        buckets = [bigrams.get(key) or self._bigram(key) for key in keys.tolist()]
        bigram_bins = _packed([index for index, _ in buckets], np.intc).astype(np.intp)[inverse]
        bigram_bins += offsets[1:][same_document]
        bigram_weights = _packed([weight for _, weight in buckets], np.float64)[inverse]
        return (np.concatenate((token_bins, bigram_bins)),
                np.concatenate((token_weights, bigram_weights)))


def cosine_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector is all-zero."""
    norm_left = float(np.linalg.norm(left))
    norm_right = float(np.linalg.norm(right))
    if norm_left == 0.0 or norm_right == 0.0:
        return 0.0
    return float(np.dot(left, right) / (norm_left * norm_right))


class HashingEmbedding:
    """Sentence embedding via hashed word unigrams/bigrams + char trigrams.

    Two paths compute the same vectors: :meth:`embed` for one text (search
    queries; the simulated reranker calls :meth:`embed_tokens` on texts it
    has tokenized already) and :meth:`embed_batch` for a corpus
    (the vector index).  They share the bucketing and both sum with
    ``np.bincount``, but lay out their feature streams differently; that a
    batch row is bitwise ``embed`` of its text is a test
    (``tests/test_startup_pins.py``), not a consequence of shared code.
    """

    def __init__(self, dim: int = 256, char_weight: float = 0.5) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.char_weight = char_weight

    def embed(self, text: str) -> np.ndarray:
        """Embed ``text`` into a unit-norm vector (zero vector for empty)."""
        return self.embed_tokens(word_tokenize(text))

    def embed_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """Embed an already tokenized text: :meth:`embed` of a text that
        tokenizes to ``tokens``.

        The tokens' packed features and then the bigrams' are joined into
        one stream and summed with one ``np.bincount``, which adds each
        bucket's weights in stream order, the order the batch path sums
        them.  The norm is ``sqrt(v.dot(v))``, which is how
        ``np.linalg.norm`` computes a vector's.
        """
        dim = self.dim
        if not tokens:
            return np.zeros(dim, dtype=np.float64)
        char_weight = self.char_weight
        features = [_token_buckets(token, dim, char_weight) for token in tokens]
        features += [_bigram_bucket(left, right, dim) for left, right in zip(tokens, tokens[1:])]
        indices, weights = zip(*features)
        vector = np.bincount(_packed(indices, np.intc), _packed(weights, np.float64),
                             minlength=dim)
        norm = math.sqrt(vector.dot(vector))
        if norm > 0:
            vector /= norm
        return vector

    def embed_batch(self, token_lists: Sequence[Sequence[str]]) -> np.ndarray:
        """Embed already tokenized texts into the rows of one unit-norm matrix.

        The batch's distinct tokens are bucketed once.  Documents are then
        summed :data:`_CHUNK_ROWS` at a time: a chunk's features are laid
        out as one stream of ``(row * dim + bucket, weight)`` pairs, every
        document's word and char-trigram features first, then its bigrams
        (each distinct bigram bucketed once per batch), and summed with
        one ``np.bincount``.  ``bincount`` adds each bin's weights in input
        order, so each row gets the additions :meth:`embed` makes, in the
        same order, and row ``i`` is bitwise ``embed`` of a text that
        tokenizes to ``token_lists[i]`` (``tests/test_startup_pins.py``
        checks it on every row of two corpora).  An all-zero row stays
        zero.
        """
        matrix = np.zeros((len(token_lists), self.dim), dtype=np.float64)
        vocabulary = _Vocabulary(token_lists, self.dim, self.char_weight)
        for start in range(0, len(token_lists), _CHUNK_ROWS):
            documents = token_lists[start : start + _CHUNK_ROWS]
            block = matrix[start : start + len(documents)]
            bins, weights = vocabulary.features(documents)
            block[...] = np.bincount(bins, weights, minlength=block.size).reshape(block.shape)
            # ``np.linalg.norm`` of a 1-d float vector is ``sqrt(x.dot(x))``;
            # one ``dot`` per row keeps its summation order.
            norms = np.sqrt([row.dot(row) for row in block])
            norms[norms == 0] = 1.0
            block /= norms[:, None]
        return matrix

    def similarity(self, left: str, right: str) -> float:
        """Cosine similarity of two texts' embeddings."""
        return cosine_similarity(self.embed(left), self.embed(right))


#: each token vector blends in the mean of its ±``CONTEXT_WINDOW`` neighbours
CONTEXT_WINDOW = 2
#: the neighbourhood mean's share of a contextual token vector
CONTEXT_WEIGHT = 0.35
#: the weight of the "language" component every token vector shares
COMMON_WEIGHT = 1.15


class ContextualEmbedding:
    """Per-token embeddings blended with a ±``CONTEXT_WINDOW`` neighbourhood.

    The blending makes two occurrences of the same word embed differently
    in different sentences — a cheap, deterministic analogue of contextual
    (BERT-style) token representations.

    ``COMMON_WEIGHT`` adds a shared "language" component to every token
    vector, emulating the well-documented anisotropy of BERT embeddings:
    any two fluent-English tokens are fairly similar, which floors
    BERTScore for unrelated-but-fluent answers and produces the ceiling
    effect the poster reports.
    """

    def __init__(self, dim: int = 128):
        self.dim = dim
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
            lo = max(0, i - CONTEXT_WINDOW)
            hi = min(len(tokens), i + CONTEXT_WINDOW + 1)
            neighbourhood = static[lo:hi].mean(axis=0)
            contextual[i] = (1 - CONTEXT_WEIGHT) * static[i] + (
                CONTEXT_WEIGHT * neighbourhood
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
        return vector + COMMON_WEIGHT * self._common
