"""Write-clause semantics: CREATE, MERGE, SET, DELETE, REMOVE + counters."""

import pytest

from repro.cypher import (
    CypherDeadlineExceeded,
    CypherEngine,
    CypherRuntimeError,
    CypherSyntaxError,
    CypherTypeError,
    ResourceExhausted,
    execute,
)
from repro.graph import GraphStore
from repro.serving import Deadline


@pytest.fixture()
def store():
    return GraphStore()


class TestCreate:
    def test_create_single_node(self, store):
        result = execute(store, "CREATE (a:AS {asn: 1}) RETURN a.asn")
        assert result.single()[0] == 1
        assert result.nodes_created == 1
        assert store.node_count == 1

    def test_create_counts_properties(self, store):
        result = execute(store, "CREATE (a:AS {asn: 1, name: 'x'})")
        assert result.properties_set == 2

    def test_create_relationship_pattern(self, store):
        result = execute(
            store, "CREATE (a:AS {asn: 1})-[:PEERS_WITH {rel: 0}]->(b:AS {asn: 2})"
        )
        assert result.nodes_created == 2
        assert result.relationships_created == 1
        rel = next(store.all_relationships())
        assert rel["rel"] == 0

    def test_create_reverse_direction(self, store):
        execute(store, "CREATE (a:AS {asn: 1})<-[:DEPENDS_ON]-(b:AS {asn: 2})")
        rel = next(store.all_relationships())
        assert store.node(rel.start_id)["asn"] == 2

    def test_create_reuses_bound_variable(self, store):
        execute(
            store,
            "CREATE (a:AS {asn: 1}) CREATE (a)-[:ORIGINATE]->(:Prefix {prefix: 'x'})",
        )
        assert store.node_count == 2
        assert store.relationship_count == 1

    def test_create_from_match(self, store):
        execute(store, "CREATE (:AS {asn: 1})")
        execute(store, "CREATE (:AS {asn: 2})")
        execute(
            store,
            "MATCH (a:AS {asn: 1}) MATCH (b:AS {asn: 2}) CREATE (a)-[:PEERS_WITH]->(b)",
        )
        assert store.relationship_count == 1

    def test_create_undirected_rejected(self, store):
        with pytest.raises(CypherSyntaxError):
            execute(store, "CREATE (a:AS {asn: 1})-[:X]-(b:AS {asn: 2})")

    def test_create_needs_label(self, store):
        with pytest.raises(CypherRuntimeError):
            execute(store, "CREATE (a {x: 1})")

    def test_create_with_parameter(self, store):
        execute(store, "CREATE (:AS {asn: $asn})", asn=7)
        assert next(store.nodes_by_label("AS"))["asn"] == 7


class TestMerge:
    def test_merge_creates_when_absent(self, store):
        result = execute(store, "MERGE (a:AS {asn: 1}) RETURN a.asn")
        assert result.nodes_created == 1

    def test_merge_matches_when_present(self, store):
        execute(store, "CREATE (:AS {asn: 1})")
        result = execute(store, "MERGE (a:AS {asn: 1}) RETURN a.asn")
        assert result.nodes_created == 0
        assert store.node_count == 1

    def test_merge_on_create_set(self, store):
        execute(store, "MERGE (a:AS {asn: 1}) ON CREATE SET a.fresh = true")
        assert next(store.nodes_by_label("AS"))["fresh"] is True

    def test_merge_on_match_set(self, store):
        execute(store, "CREATE (:AS {asn: 1})")
        execute(store, "MERGE (a:AS {asn: 1}) ON MATCH SET a.seen = true")
        assert next(store.nodes_by_label("AS"))["seen"] is True

    def test_merge_relationship(self, store):
        execute(store, "CREATE (:AS {asn: 1}) CREATE (:AS {asn: 2})")
        query = (
            "MATCH (a:AS {asn: 1}) MATCH (b:AS {asn: 2}) "
            "MERGE (a)-[:PEERS_WITH]->(b)"
        )
        execute(store, query)
        execute(store, query)  # idempotent
        assert store.relationship_count == 1


def _hub_store(spokes: int = 600) -> GraphStore:
    """One ``H`` hub with an ``X`` edge to each of ``spokes`` ``N`` nodes."""
    store = GraphStore()
    hub = store.create_node(["H"], {})
    for index in range(spokes):
        spoke = store.create_node(["N"], {"i": index})
        store.create_relationship(hub.node_id, "X", spoke.node_id)
    return store


def _country_store() -> GraphStore:
    store = GraphStore()
    execute(
        store,
        "CREATE (a:AS {asn: 1})-[:COUNTRY]->(c:Country {cc: 'JP'}) "
        "CREATE (b:AS {asn: 2})-[:COUNTRY]->(c) CREATE (:Country {cc: 'US'})",
    )
    return store


class _SteppingClock:
    """Monotonic fake clock: advances ``step`` seconds per reading."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestMergeMatch:
    """MERGE's match runs the same operator chain as MATCH."""

    HUB_MERGE = "MATCH (h:H) MERGE (h)-[:X]->(n:N) RETURN count(n) AS n"

    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "unplanned"])
    def test_merge_match_obeys_row_budget(self, planner):
        engine = CypherEngine(_hub_store(), planner=planner)
        assert engine.run(self.HUB_MERGE).single()["n"] == 600
        with pytest.raises(ResourceExhausted, match="row budget"):
            CypherEngine(_hub_store(), planner=planner).execute(self.HUB_MERGE, row_budget=500)

    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "unplanned"])
    def test_merge_match_checks_deadline(self, planner):
        engine = CypherEngine(_hub_store(), planner=planner)
        # One clock reading per 256 charged rows: expires around row 512,
        # while the match is still enumerating the 600 spokes.
        deadline = Deadline(3.0, clock=_SteppingClock(0.001))
        with pytest.raises(CypherDeadlineExceeded):
            engine.execute(self.HUB_MERGE, deadline=deadline)

    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "unplanned"])
    @pytest.mark.parametrize(
        "pattern", ["(a:AS)-[:COUNTRY]->(c)", "(c)<-[:COUNTRY]-(a:AS)"], ids=["out", "in"]
    )
    def test_merge_from_bound_far_end(self, planner, pattern):
        store = _country_store()
        result = CypherEngine(store, planner=planner).run(
            f"MATCH (c:Country {{cc: 'JP'}}) MERGE {pattern} RETURN a.asn AS asn ORDER BY asn"
        )
        assert [row["asn"] for row in result.to_dicts()] == [1, 2]
        assert (result.nodes_created, result.relationships_created) == (0, 0)
        created = CypherEngine(store, planner=planner).run(
            f"MATCH (c:Country {{cc: 'US'}}) MERGE {pattern} RETURN a.asn AS asn"
        )
        assert (created.nodes_created, created.relationships_created) == (1, 1)
        assert store.node_count == 5

    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "unplanned"])
    def test_merge_sees_its_own_earlier_writes(self, planner):
        store = GraphStore()
        result = CypherEngine(store, planner=planner).run(
            "UNWIND [1, 1, 2] AS x MERGE (n:T {k: x}) RETURN n.k AS k"
        )
        assert [row["k"] for row in result.to_dicts()] == [1, 1, 2]
        assert result.nodes_created == 2
        assert store.node_count == 2

    @pytest.mark.parametrize(
        "query",
        [
            "UNWIND [1, 1, 2] AS x MERGE (n:T {k: x}) ON CREATE SET n.new = x "
            "ON MATCH SET n.seen = x RETURN n.k AS k, n.new AS new, n.seen AS seen",
            "MATCH (c:Country) MERGE (a:AS {asn: 1})-[:COUNTRY]->(c) "
            "RETURN c.cc AS cc, a.asn AS asn ORDER BY cc",
            "MATCH (a:AS) MERGE (a)-[:COUNTRY]->(c:Country) "
            "RETURN a.asn AS asn, c.cc AS cc ORDER BY asn",
            "MATCH (a:AS), (b:AS) WHERE a.asn < b.asn MERGE (a)-[r:PEERS_WITH]->(b) "
            "RETURN a.asn AS a, b.asn AS b",
        ],
    )
    def test_planned_and_unplanned_merge_agree(self, query):
        planned_store, unplanned_store = _country_store(), _country_store()
        planned = CypherEngine(planned_store).run(query)
        unplanned = CypherEngine(unplanned_store, planner=False).run(query)
        assert planned.to_dicts() == unplanned.to_dicts()
        assert (planned_store.node_count, planned_store.relationship_count) == (
            unplanned_store.node_count, unplanned_store.relationship_count
        )

    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "unplanned"])
    def test_explain_names_merge_anchor_and_access_path(self, planner):
        engine = CypherEngine(_country_store(), planner=planner)
        text = engine.explain("MERGE (n:T {k: 1})")
        assert "Merge pattern(1 nodes, 0 hops) anchor=(n:T) via PropertyLookup(:T.k)" in text
        text = engine.explain("MATCH (c:Country {cc: 'JP'}) MERGE (a:AS)-[:COUNTRY]->(c)")
        assert "Merge pattern(2 nodes, 1 hops) anchor=(c) via BoundVariable(c), " \
            "expand right-to-left" in text


class TestSet:
    def test_set_property(self, store):
        execute(store, "CREATE (:AS {asn: 1})")
        result = execute(store, "MATCH (a:AS) SET a.name = 'X'")
        assert result.properties_set == 1
        assert next(store.nodes_by_label("AS"))["name"] == "X"

    def test_set_computed_value(self, store):
        execute(store, "CREATE (:AS {asn: 1})")
        execute(store, "MATCH (a:AS) SET a.double = a.asn * 2")
        assert next(store.nodes_by_label("AS"))["double"] == 2

    def test_set_merge_map(self, store):
        execute(store, "CREATE (:AS {asn: 1})")
        execute(store, "MATCH (a:AS) SET a += {x: 1, y: 2}")
        node = next(store.nodes_by_label("AS"))
        assert (node["asn"], node["x"], node["y"]) == (1, 1, 2)

    def test_set_replace_map(self, store):
        execute(store, "CREATE (:AS {asn: 1, old: true})")
        execute(store, "MATCH (a:AS) SET a = {fresh: true}")
        node = next(store.nodes_by_label("AS"))
        assert node.properties == {"fresh": True}

    def test_set_on_relationship(self, store):
        execute(store, "CREATE (:AS {asn: 1})-[:X]->(:AS {asn: 2})")
        execute(store, "MATCH (:AS)-[r:X]->(:AS) SET r.weight = 5")
        assert next(store.all_relationships())["weight"] == 5

    def test_set_on_null_target_is_noop(self, store):
        execute(store, "CREATE (:AS {asn: 1})")
        execute(
            store,
            "MATCH (a:AS) OPTIONAL MATCH (a)-[:X]->(b) SET b.x = 1",
        )  # b is null: no error

    def test_set_on_scalar_rejected(self, store):
        with pytest.raises(CypherTypeError):
            execute(store, "WITH 1 AS a SET a.x = 2")


class TestDeleteRemove:
    def test_delete_relationship(self, store):
        execute(store, "CREATE (:AS {asn: 1})-[:X]->(:AS {asn: 2})")
        result = execute(store, "MATCH (:AS)-[r:X]->(:AS) DELETE r")
        assert result.relationships_deleted == 1
        assert store.relationship_count == 0

    def test_delete_connected_node_without_detach_fails(self, store):
        execute(store, "CREATE (:AS {asn: 1})-[:X]->(:AS {asn: 2})")
        from repro.graph import GraphError

        with pytest.raises(GraphError):
            execute(store, "MATCH (a:AS {asn: 1}) DELETE a")

    def test_detach_delete(self, store):
        execute(store, "CREATE (:AS {asn: 1})-[:X]->(:AS {asn: 2})")
        result = execute(store, "MATCH (a:AS {asn: 1}) DETACH DELETE a")
        assert result.nodes_deleted == 1
        assert result.relationships_deleted == 1
        assert store.node_count == 1

    def test_delete_same_node_twice_in_rows(self, store):
        execute(store, "CREATE (:AS {asn: 1})-[:X]->(:AS {asn: 2})")
        execute(store, "MATCH (a:AS {asn: 1})-[:X]->(:AS) DETACH DELETE a")
        assert store.node_count == 1

    def test_delete_null_is_noop(self, store):
        execute(store, "CREATE (:AS {asn: 1})")
        execute(store, "MATCH (a:AS) OPTIONAL MATCH (a)-[:X]->(b) DELETE b")
        assert store.node_count == 1

    def test_delete_scalar_rejected(self, store):
        with pytest.raises(CypherTypeError):
            execute(store, "WITH 1 AS x DELETE x")

    def test_remove_property(self, store):
        execute(store, "CREATE (:AS {asn: 1, junk: true})")
        execute(store, "MATCH (a:AS) REMOVE a.junk")
        assert "junk" not in next(store.nodes_by_label("AS"))

    def test_write_query_returns_empty_resultset_with_counters(self, store):
        result = execute(store, "CREATE (:AS {asn: 1})")
        assert len(result) == 0
        assert result.keys == []
        assert result.nodes_created == 1
