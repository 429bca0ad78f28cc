"""Range pushdown, top-k selection and vector top-k.

Covers the planner's range pushdown (EXPLAIN + costing), planner-on/off
equivalence for range, prefix and ORDER BY ... LIMIT shapes before and
after mutation, the executor's heap ORDER BY LIMIT path, and the vector
store's argpartition selection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cypher import CypherEngine
from repro.embed.model import HashingEmbedding
from repro.embed.vector_store import SearchHit, VectorStore
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


def _reference_search(store, query, top_k, min_score=0.0):
    """The pre-argpartition full-stable-sort search, kept as an oracle."""
    matrix, entries = store._matrix, store.entries()
    if top_k <= 0 or matrix.shape[0] == 0:
        return []
    scores = matrix @ store.embedding.embed(query)
    hits = []
    for index in np.argsort(-scores, kind="stable"):
        entry = entries[int(index)]
        score = float(scores[int(index)])
        if score <= min_score:
            break
        hits.append(
            SearchHit(entry.entry_id, entry.text, score, dict(entry.metadata), int(index))
        )
        if len(hits) >= top_k:
            break
    return hits


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
