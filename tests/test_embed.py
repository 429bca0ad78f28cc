"""Tests for embeddings and the vector store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embed import (
    ContextualEmbedding,
    HashingEmbedding,
    VectorStore,
    cosine_similarity,
)
from repro.nlp import word_tokenize


class TestHashingEmbedding:
    def test_deterministic(self):
        model = HashingEmbedding()
        first = model.embed("the internet yellow pages")
        second = model.embed("the internet yellow pages")
        assert np.array_equal(first, second)

    def test_unit_norm(self):
        model = HashingEmbedding()
        vector = model.embed("AS2497 originates prefixes in Japan")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_empty_text_is_zero_vector(self):
        model = HashingEmbedding()
        assert np.linalg.norm(model.embed("")) == 0.0

    def test_self_similarity_is_one(self):
        model = HashingEmbedding()
        assert model.similarity("hello world", "hello world") == pytest.approx(1.0)

    def test_overlap_monotonicity(self):
        model = HashingEmbedding()
        query = "AS2497 japan population percentage"
        close = "AS2497 serves a percentage of the japan population"
        far = "chocolate cake recipe with vanilla frosting"
        assert model.similarity(query, close) > model.similarity(query, far)

    def test_dimension_respected(self):
        assert HashingEmbedding(dim=64).embed("x").shape == (64,)

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValueError):
            HashingEmbedding(dim=0)

    @settings(max_examples=25, deadline=None)
    @given(st.text(max_size=40), st.text(max_size=40))
    def test_similarity_symmetric_and_bounded(self, left, right):
        model = HashingEmbedding(dim=64)
        forward = model.similarity(left, right)
        backward = model.similarity(right, left)
        assert forward == pytest.approx(backward)
        assert -1.0001 <= forward <= 1.0001


class TestCosine:
    def test_zero_vector_gives_zero(self):
        assert cosine_similarity(np.zeros(4), np.ones(4)) == 0.0

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_identical(self):
        vector = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(vector, vector) == pytest.approx(1.0)


class TestContextualEmbedding:
    def test_shapes(self):
        model = ContextualEmbedding(dim=48)
        tokens, matrix = model.token_embeddings("one two three")
        assert tokens == ["one", "two", "three"]
        assert matrix.shape == (3, 48)

    def test_rows_unit_norm(self):
        model = ContextualEmbedding()
        _, matrix = model.token_embeddings("alpha beta gamma delta")
        norms = np.linalg.norm(matrix, axis=1)
        assert np.allclose(norms, 1.0)

    def test_empty_text(self):
        tokens, matrix = ContextualEmbedding(dim=16).token_embeddings("")
        assert tokens == []
        assert matrix.shape == (0, 16)

    def test_context_changes_token_vector(self):
        model = ContextualEmbedding()
        _, in_a = model.token_embeddings("bank of the river")
        _, in_b = model.token_embeddings("bank holds the money")
        # 'bank' is token 0 in both; context blending must differentiate them.
        assert not np.allclose(in_a[0], in_b[0])

    def test_anisotropy_floor(self):
        # Unrelated tokens still have clearly positive similarity (the
        # common "language" component that yields BERTScore's ceiling).
        model = ContextualEmbedding()
        _, left = model.token_embeddings("pelican")
        _, right = model.token_embeddings("asphalt")
        assert float(left[0] @ right[0]) > 0.3


class TestVectorStore:
    @pytest.fixture()
    def store(self):
        return VectorStore(
            [
                ("a", "AS2497 is a Japanese network operator", {"kind": "as"}),
                ("b", "AMS-IX is an internet exchange in Amsterdam", {"kind": "ixp"}),
                ("c", "chocolate cake with strawberries", {"kind": "food"}),
            ],
            HashingEmbedding(dim=128),
        )

    def test_top1_is_most_relevant(self, store):
        rows, _ = store.search("japanese network AS2497", top_k=1)
        assert store.entries()[rows[0]].entry_id == "a"

    def test_top_k_bounded(self, store):
        rows, scores = store.search("internet", top_k=2)
        assert len(rows) == len(scores) <= 2

    def test_min_score_cuts_noise(self, store):
        _, scores = store.search("AS2497 network operator", top_k=5, min_score=0.3)
        assert all(score > 0.3 for score in scores)

    def test_len(self, store):
        assert len(store) == 3

    def test_empty_store_search(self):
        assert VectorStore([]).search("anything") == ([], [])

    def test_add_batch(self):
        # The constructor is the one batch add: it indexes every triple.
        store = VectorStore([("x", "one", {}), ("y", "two", {})])
        assert len(store) == 2
        assert [entry.entry_id for entry in store.entries()] == ["x", "y"]

    def test_rows_are_the_texts_embeddings(self, store):
        # One tokenization per entry feeds both its matrix row and its
        # token store row; the row is bitwise what embed() gives the same
        # text, and the token store holds the text's distinct tokens: all
        # of them, and no token of another text.
        token_sets = []
        for row, entry in enumerate(store.entries()):
            assert np.array_equal(store._matrix[row], store.embedding.embed(entry.text))
            token_sets.append(frozenset(word_tokenize(entry.text)))
            assert store.token_overlap(token_sets[-1], [row]) == [len(token_sets[-1])]
        rows = range(len(token_sets))
        everything = frozenset().union(*token_sets)
        assert store.token_overlap(everything, rows) == list(map(len, token_sets))

    def test_scores_sorted_descending(self, store):
        _, scores = store.search("internet network exchange", top_k=3)
        assert scores == sorted(scores, reverse=True)
