"""Write-clause semantics: CREATE and ``SET variable.key = expression`` +
counters; every other write is rejected before it runs."""

import pytest

from repro.cypher import (
    CypherEngine,
    CypherRuntimeError,
    CypherSyntaxError,
    CypherTypeError,
    UnsupportedWrite,
    execute,
    is_read_only,
)
from repro.graph import GraphStore


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

    def test_write_query_returns_empty_resultset_with_counters(self, store):
        result = execute(store, "CREATE (:AS {asn: 1})")
        assert len(result) == 0
        assert result.keys == []
        assert result.nodes_created == 1


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

    def test_set_null_removes_property(self, store):
        execute(store, "CREATE (:AS {asn: 1, junk: true})")
        execute(store, "MATCH (a:AS) SET a.junk = null")
        assert "junk" not in next(store.nodes_by_label("AS"))

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


class TestUnsupportedWrites:
    """MERGE, DELETE, REMOVE and SET's map and label forms raise
    UnsupportedWrite before anything touches the store."""

    QUERIES = [
        "MERGE (a:AS {asn: 1})",
        "MERGE (a:AS {asn: 1}) ON CREATE SET a.new = true ON MATCH SET a.seen = true",
        "MATCH (a:AS)-[r:PEERS_WITH]->() DELETE r",
        "MATCH (a:AS {asn: 1}) DETACH DELETE a",
        "MATCH (a:AS) REMOVE a.name",
        "MATCH (a:AS) REMOVE a:AS",
        "MATCH (a:AS) SET a += {x: 1}",
        "MATCH (a:AS) SET a = {x: 1}",
        "MATCH (a:AS) SET a:L",
        "MATCH (a:AS) SET a.x = 1, a:L",
        "MATCH (a:AS) RETURN a.asn AS asn UNION MATCH (a:AS) DELETE a RETURN a.asn AS asn",
    ]

    @staticmethod
    def _store() -> GraphStore:
        store = GraphStore()
        one = store.create_node(["AS"], {"asn": 1, "name": "one"})
        two = store.create_node(["AS"], {"asn": 2, "name": "two"})
        store.create_relationship(one.node_id, "PEERS_WITH", two.node_id)
        return store

    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "unplanned"])
    @pytest.mark.parametrize("query", QUERIES)
    def test_rejected_before_the_store_is_touched(self, planner, query):
        store = self._store()
        before = (store.node_count, store.relationship_count, store.stats_version)
        engine = CypherEngine(store, planner=planner)
        with pytest.raises(UnsupportedWrite):
            engine.execute(query)
        with pytest.raises(UnsupportedWrite):
            engine.explain(query)
        assert (store.node_count, store.relationship_count, store.stats_version) == before
        assert [node.properties for node in store.nodes_by_label("AS")] == [
            {"asn": 1, "name": "one"}, {"asn": 2, "name": "two"}
        ]
        assert not is_read_only(query)
        assert not engine.is_read_only(query)

    def test_is_a_syntax_error_at_the_clause(self):
        with pytest.raises(CypherSyntaxError, match=r"DETACH DELETE .*column 23"):
            execute(GraphStore(), "MATCH (a:AS {asn: 1}) DETACH DELETE a")
        with pytest.raises(UnsupportedWrite, match=r"column 27"):
            execute(GraphStore(), "MATCH (a:AS) SET a.x = 1, a:L")

    def test_malformed_set_item_stays_a_plain_syntax_error(self):
        with pytest.raises(CypherSyntaxError) as caught:
            is_read_only("MATCH (a:AS) SET a RETURN a")
        assert not isinstance(caught.value, UnsupportedWrite)

    @pytest.mark.parametrize("query", QUERIES)
    def test_chatiyp_run_cypher_raises(self, chatiyp_small, query):
        store = chatiyp_small.engine.store
        before = (store.node_count, store.relationship_count, store.stats_version)
        with pytest.raises(UnsupportedWrite):
            chatiyp_small.run_cypher(query)
        assert (store.node_count, store.relationship_count, store.stats_version) == before
