"""Range pushdown, top-k selection and vector top-k.

Covers the planner's range pushdown (EXPLAIN + costing), planner-on/off
equivalence for range, prefix and ORDER BY ... LIMIT shapes before and
after mutation, the executor's heap ORDER BY LIMIT path, and the vector
store's search: a float32 prefilter and an exact re-score of the rows
within its margin, checked against exact scores of every row.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import CypherEngine
from repro.embed import vector_store
from repro.embed.model import HashingEmbedding
from repro.embed.vector_store import VectorStore, _float32_margin, _float32_scores
from repro.graph import GraphStore


class TestRangePlanner:
    def test_explain_range_lookup(self, small_engine):
        plan = small_engine.explain(
            "MATCH (a:AS) WHERE a.asn > 1000 AND a.asn <= 200000 RETURN a.asn"
        )
        assert "+- LabelScan(:AS, pushed a.asn >, a.asn <=)" in plan

    def test_explain_prefix_lookup(self, small_engine):
        plan = small_engine.explain(
            "MATCH (a:AS) WHERE a.name STARTS WITH 'AS-' RETURN a.name"
        )
        assert "+- LabelScan(:AS)" in plan
        assert "pushed" not in plan
        assert "+- Filter(WHERE)" in plan

    def test_range_pushdown_keeps_type_bands(self):
        store = GraphStore()
        for value in ("beta", 10, "alpha", 2, True):
            store.create_node(["X"], {"v": value})
        query = "MATCH (x:X) WHERE x.v >= 0 AND x.v <= 100 RETURN x.v AS v ORDER BY v"
        planned = list(CypherEngine(store).run(query))
        # A numeric range never admits strings or booleans.
        assert [record["v"] for record in planned] == [2, 10]
        assert planned == list(CypherEngine(store, planner=False).run(query))

    def test_equality_still_beats_range(self, small_engine):
        plan = small_engine.explain(
            "MATCH (a:AS) WHERE a.asn = 2497 AND a.asn > 0 RETURN a.name"
        )
        assert "+- HashLookup(:AS.asn, pushed a.asn =, a.asn >)" in plan

    def test_no_sorted_index_falls_back_to_label_scan(self, small_engine):
        plan = small_engine.explain(
            "MATCH (c:Country) WHERE c.country_code >= 'A' RETURN c"
        )
        assert "+- LabelScan(:Country, pushed c.country_code >=)" in plan


#: Queries whose rows must be identical with the planner on and off.
EQUIVALENCE_QUERIES = [
    "MATCH (a:AS) WHERE a.asn > 1000 AND a.asn <= 200000 RETURN a.asn ORDER BY a.asn",
    "MATCH (a:AS) WHERE a.asn >= 2497 AND a.asn < 2498 RETURN a.name",
    "MATCH (a:AS) WHERE 5000 > a.asn RETURN a.asn ORDER BY a.asn",
    "MATCH (a:AS) WHERE a.name STARTS WITH 'A' RETURN a.name ORDER BY a.name",
    "MATCH (a:AS) RETURN a.asn AS asn ORDER BY a.asn LIMIT 7",
    "MATCH (a:AS) RETURN a.asn AS asn ORDER BY a.asn DESC LIMIT 7",
    "MATCH (a:AS) RETURN a.asn AS asn ORDER BY a.asn SKIP 3 LIMIT 4",
    "MATCH (a:AS) WHERE a.asn > 2000 RETURN a.asn ORDER BY a.asn LIMIT 5",
    (
        "MATCH (a:AS)-[:COUNTRY]->(c:Country) WHERE a.asn >= 1000 "
        "RETURN c.country_code AS cc, count(a) AS n ORDER BY n DESC, cc LIMIT 5"
    ),
]


class TestIndexScanEquivalence:
    @pytest.fixture()
    def stores(self):
        from repro.iyp import IYPConfig, generate_iyp

        store = generate_iyp(IYPConfig.small(seed=7)).store
        return store, CypherEngine(store), CypherEngine(store, planner=False)

    @pytest.mark.parametrize("query", EQUIVALENCE_QUERIES)
    def test_planner_on_off_identical(self, stores, query):
        _, planned, unplanned = stores
        rows = list(planned.run(query))
        assert rows == list(unplanned.run(query))
        assert rows  # every equivalence query must actually produce rows

    def test_equivalence_survives_mutation(self, stores):
        store, planned, unplanned = stores
        query = EQUIVALENCE_QUERIES[0]
        before = list(planned.run(query))
        victim = planned.run(
            "MATCH (a:AS) WHERE a.asn > 1000 AND a.asn <= 200000 "
            "RETURN a ORDER BY a.asn LIMIT 1"
        ).single()["a"]
        created = store.create_node(["AS"], {"asn": 1500, "name": "FRESH"})
        store.set_node_property(victim.node_id, "asn", 123456)
        after_planned = list(planned.run(query))
        after_unplanned = list(unplanned.run(query))
        assert after_planned == after_unplanned
        assert after_planned != before  # the mutation is visible
        store.set_node_property(created.node_id, "asn", None)
        assert list(planned.run(query)) == list(unplanned.run(query))


class TestTopKSelection:
    @pytest.fixture()
    def tie_engines(self):
        """Store with deliberate ORDER BY ties and a null sort key."""
        store = GraphStore()
        for rank, name in [
            (3, "c1"), (1, "a1"), (3, "c2"), (2, "b1"), (1, "a2"),
            (2, "b2"), (3, "c3"), (1, "a3"),
        ]:
            store.create_node(["Item"], {"rank": rank, "name": name})
        store.create_node(["Item"], {"name": "norank"})
        return CypherEngine(store), CypherEngine(store, planner=False)

    @pytest.mark.parametrize(
        "query",
        [
            "MATCH (i:Item) RETURN i.name AS name ORDER BY i.rank LIMIT 4",
            "MATCH (i:Item) RETURN i.name AS name ORDER BY i.rank DESC LIMIT 4",
            "MATCH (i:Item) RETURN i.name AS name ORDER BY i.rank SKIP 2 LIMIT 3",
            "MATCH (i:Item) RETURN i.name AS name ORDER BY i.rank LIMIT 0",
            "MATCH (i:Item) RETURN i.name AS name ORDER BY i.rank LIMIT 50",
            "MATCH (i:Item) RETURN i.name AS name ORDER BY i.rank, i.name DESC LIMIT 4",
            "MATCH (i:Item) WHERE i.rank >= 2 RETURN i.name AS name "
            "ORDER BY i.rank LIMIT 3",
        ],
    )
    def test_heap_and_fused_paths_match_full_sort(self, tie_engines, query):
        planned, unplanned = tie_engines
        assert list(planned.run(query)) == list(unplanned.run(query))

    def test_stable_tie_break_preserved(self, tie_engines):
        planned, _ = tie_engines
        names = [
            record["name"]
            for record in planned.run(
                "MATCH (i:Item) RETURN i.name AS name ORDER BY i.rank LIMIT 5"
            )
        ]
        # Within a rank tie the original insertion order must survive.
        assert names == ["a1", "a2", "a3", "b1", "b2"]

    def test_desc_places_null_rank_first(self, tie_engines):
        planned, unplanned = tie_engines
        query = "MATCH (i:Item) RETURN i.name AS name ORDER BY i.rank DESC LIMIT 1"
        assert [r["name"] for r in planned.run(query)] == ["norank"]
        assert list(planned.run(query)) == list(unplanned.run(query))


def _exact_score(row, vector):
    """A row's score: its products with the query summed in column order,
    in Python floats, over every column (a zero product changes no sum)."""
    total = 0.0
    for left, right in zip(row.tolist(), vector.tolist()):
        total += left * right
    return total


def _reference_search(store, query, top_k, min_score=0.0):
    """Exact scores of every row and a full stable sort, kept as an oracle:
    the hits' rows and scores, best first."""
    matrix = store._matrix
    if top_k <= 0 or matrix.shape[0] == 0:
        return [], []
    vector = store.embedding.embed(query)
    every = [_exact_score(row, vector) for row in matrix]
    rows, scores = [], []
    for row in sorted(range(len(every)), key=lambda row: -every[row]):
        if every[row] <= min_score or len(rows) >= top_k:
            break
        rows.append(row)
        scores.append(every[row])
    return rows, scores


def _cut(hits, min_score, top_k):
    """The first ``top_k`` of ``hits`` (rows, scores) scoring above ``min_score``."""
    rows, scores = hits
    kept = min(top_k, sum(score > min_score for score in scores))
    return rows[:kept], scores[:kept]


class TestVectorTopK:
    WORDS = ["asn", "prefix", "domain", "route", "peer", "ixp", "rank", "origin"]

    @pytest.fixture(scope="class")
    def corpus(self):
        import random

        rng = random.Random(11)
        texts = [
            " ".join(rng.choices(self.WORDS, k=rng.randint(1, 4))) for _ in range(200)
        ]
        store = VectorStore(
            [(f"e{i}", text, {"even": i % 2 == 0}) for i, text in enumerate(texts)],
            HashingEmbedding(dim=64),
        )
        return store, texts

    @pytest.mark.parametrize("top_k", [1, 3, 10, 150, 500])
    @pytest.mark.parametrize("min_score", [0.0, 0.45, 0.95])
    def test_argpartition_matches_full_sort(self, corpus, top_k, min_score):
        store, _ = corpus
        for query in ("asn prefix", "route peer ixp", "completely unrelated zzz"):
            fast = store.search(query, top_k=top_k, min_score=min_score)
            assert fast == _reference_search(store, query, top_k, min_score=min_score)

    def test_rescore_in_blocks_matches_full_sort(self, corpus, monkeypatch):
        # Re-scored rows are gathered a block at a time; an empty query
        # ties every row at zero, so all 200 are re-scored.
        monkeypatch.setattr(vector_store, "_RESCORE_ROWS", 7)
        store, _ = corpus
        for query, min_score in (("asn prefix", 0.0), ("", -1.0), ("!!!", -1.0)):
            for top_k in (5, 64, 500):
                expected = _reference_search(store, query, top_k, min_score=min_score)
                assert store.search(query, top_k=top_k, min_score=min_score) == expected


# ----------------------------------------------------------------------
# The float32 prefilter's margin, against the exact scores of every row.
# ----------------------------------------------------------------------

TIE_WORDS = ["asn", "prefix", "domain", "route", "peer", "ixp", "as2497", "japan"]


@st.composite
def near_tie_corpora(draw):
    """(dim, texts, query): texts with duplicates, one-token variants and
    rows with no word token (all-zero rows), in a drawn order."""
    dim = draw(st.sampled_from([64, 256]))
    bases = draw(st.lists(st.lists(st.sampled_from(TIE_WORDS), min_size=1, max_size=5),
                          min_size=1, max_size=6))
    texts = []
    for tokens in bases:
        texts += [" ".join(tokens)] * draw(st.integers(1, 3))
        word = draw(st.sampled_from(TIE_WORDS))
        position = draw(st.integers(0, len(tokens)))
        texts.append(" ".join(tokens[:position] + [word] + tokens[position:]))
        texts.append(" ".join(tokens[:position] + [word] + tokens[position + 1:]))
    texts += draw(st.lists(st.sampled_from(["", "!!! ???"]), max_size=2))
    texts = draw(st.permutations(texts))
    query = " ".join(draw(st.lists(st.sampled_from(TIE_WORDS + ["zzz"]), max_size=4)))
    return dim, texts, query


class TestFloat32Prefilter:
    @settings(max_examples=150, deadline=None)
    @given(near_tie_corpora())
    def test_search_matches_the_exact_full_sort(self, case):
        dim, texts, query = case
        store = VectorStore([(f"e{i}", text, {"i": i}) for i, text in enumerate(texts)],
                            HashingEmbedding(dim=dim))
        ranked = _reference_search(store, query, len(texts), min_score=-2.0)
        scores = ranked[1]
        # min_score cuts: none, the retriever's, and exactly at a score
        # (ties of that score are cut with it)
        cuts = [-2.0, 0.0, 0.02] + scores[:: max(1, len(scores) // 3)]
        for min_score in cuts:
            # every cut: inside and at the edges of tie groups, and past the end
            for top_k in range(1, len(texts) + 2):
                expected = _cut(ranked, min_score, top_k)
                assert store.search(query, top_k=top_k, min_score=min_score) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([64, 256]), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-9, 1e-8, 1e-7, 1e-6]))
    def test_ties_closer_than_float32_resolution(self, dim, seed, spread):
        # Rows a tiny random step apart around one direction near the
        # query, a duplicate and zero rows: their float32 scores order
        # differently from the exact ones, and only the margin keeps the
        # exact top k among the rows re-scored.
        query = "asn prefix route peer"
        store = VectorStore([(f"e{i}", "", {}) for i in range(40)], HashingEmbedding(dim=dim))
        rng = np.random.default_rng(seed)
        centre = store.embedding.embed(query) + 0.5 * rng.standard_normal(dim)
        matrix = centre + spread * rng.standard_normal((40, dim))
        matrix[7] = matrix[3]
        matrix[rng.random(40) < 0.15] = 0.0
        norms = np.linalg.norm(matrix, axis=1)
        norms[norms == 0] = 1.0
        store._matrix = matrix / norms[:, None]
        store._transposed = np.ascontiguousarray(store._matrix.T, dtype=np.float32)
        ranked = _reference_search(store, query, 40, min_score=-2.0)
        for min_score in (-2.0, 0.0, ranked[1][len(ranked[1]) // 2]):
            for top_k in range(1, 42):
                expected = _cut(ranked, min_score, top_k)
                assert store.search(query, top_k=top_k, min_score=min_score) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([64, 256]), st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
    def test_float32_scores_are_within_the_margin(self, dim, seed, density):
        # Unit vectors with random signs and magnitudes, sparse or dense:
        # the bound must hold whatever the number of summed terms.
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((40, dim)) * (rng.random((40, dim)) < density)
        matrix[0] = 0.0
        norms = np.linalg.norm(matrix, axis=1)
        norms[norms == 0] = 1.0
        matrix /= norms[:, None]
        vector = rng.standard_normal(dim) * (rng.random(dim) < density)
        if vector.any():
            vector /= np.linalg.norm(vector)
        columns = np.flatnonzero(vector)
        transposed = np.ascontiguousarray(matrix.T, dtype=np.float32)
        coarse = _float32_scores(transposed, columns, vector[columns])
        margin = _float32_margin(columns.size)
        for row, score in zip(matrix, coarse.tolist()):
            assert abs(score - _exact_score(row, vector)) <= margin
