"""Pattern matching semantics: labels, directions, uniqueness, paths."""

import pytest

from repro.cypher import CypherEngine, CypherTypeError, execute
from repro.graph import GraphStore


class TestBasicMatching:
    def test_label_scan(self, tiny_store):
        result = execute(tiny_store, "MATCH (a:AS) RETURN a.asn ORDER BY a.asn")
        assert result.values("a.asn") == [2497, 15169]

    def test_property_filter_in_pattern(self, tiny_store):
        result = execute(tiny_store, "MATCH (a:AS {asn: 2497}) RETURN a.name")
        assert result.single()["a.name"] == "IIJ"

    def test_unlabeled_scan(self, tiny_store):
        result = execute(tiny_store, "MATCH (n) RETURN count(*) AS c")
        assert result.single()["c"] == 5

    def test_no_match_returns_empty(self, tiny_store):
        result = execute(tiny_store, "MATCH (a:AS {asn: 99}) RETURN a")
        assert len(result) == 0

    def test_missing_label_is_empty_not_error(self, tiny_store):
        assert len(execute(tiny_store, "MATCH (x:Nothing) RETURN x")) == 0

    def test_property_value_from_parameter(self, tiny_store):
        result = execute(tiny_store, "MATCH (a:AS {asn: $a}) RETURN a.name", a=15169)
        assert result.single()[0] == "GOOGLE"


class TestDirections:
    def test_outgoing(self, tiny_store):
        result = execute(
            tiny_store, "MATCH (:AS {asn: 2497})-[:COUNTRY]->(c:Country) RETURN c.country_code"
        )
        assert result.values() == ["JP"]

    def test_incoming(self, tiny_store):
        result = execute(
            tiny_store, "MATCH (c:Country)<-[:COUNTRY]-(:AS {asn: 2497}) RETURN c.country_code"
        )
        assert result.values() == ["JP"]

    def test_wrong_direction_no_match(self, tiny_store):
        result = execute(
            tiny_store, "MATCH (:AS {asn: 2497})<-[:COUNTRY]-(c:Country) RETURN c"
        )
        assert len(result) == 0

    def test_undirected(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (:AS {asn: 15169})-[:PEERS_WITH]-(b:AS) RETURN b.asn",
        )
        assert result.values() == [2497]

    def test_rel_property_filter(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (:AS)-[p:POPULATION {percent: 5.3}]->(c:Country) RETURN c.country_code",
        )
        assert result.values() == ["JP"]

    def test_rel_type_alternatives(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (:AS {asn: 2497})-[r:COUNTRY|POPULATION]->(:Country) "
            "RETURN type(r) ORDER BY type(r)",
        )
        assert result.values() == ["COUNTRY", "POPULATION"]

    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "unplanned"])
    @pytest.mark.parametrize("hop", ["[r:X|X]", "[r:X|:X]", "[:X|X*1..2]", "[:X|Y|X*]"])
    def test_rel_type_named_twice_matches_once(self, planner, hop):
        # Neo4j counts the one X relationship once, however often X is named
        store = GraphStore()
        a, b = store.create_node(["N"]), store.create_node(["N"])
        store.create_relationship(a.node_id, "X", b.node_id)
        engine = CypherEngine(store, planner=planner)
        assert engine.run(f"MATCH (a)-{hop}->(b) RETURN count(*) AS n").single()["n"] == 1

    def test_anchor_reversal_matches_from_selective_end(self, tiny_store):
        # First node unconstrained; engine should still find the match fast
        # and, more importantly, correctly.
        result = execute(
            tiny_store, "MATCH (a)-[:ORIGINATE]->(p:Prefix {prefix: '203.0.113.0/24'}) RETURN a.asn"
        )
        assert result.values() == [2497]


class TestMultiHopAndChaining:
    def test_two_hops(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (:AS {asn: 15169})-[:PEERS_WITH]-(b:AS)-[:COUNTRY]->(c:Country) "
            "RETURN b.asn, c.country_code",
        )
        assert result.single().values() == [2497, "JP"]

    def test_multiple_match_clauses_join(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (a:AS {asn: 2497}) MATCH (a)-[:ORIGINATE]->(p:Prefix) RETURN p.prefix",
        )
        assert result.values() == ["203.0.113.0/24"]

    def test_cartesian_product_of_parts(self, tiny_store):
        result = execute(tiny_store, "MATCH (a:AS), (c:Country) RETURN count(*) AS c")
        assert result.single()["c"] == 4

    def test_rebound_variable_must_be_consistent(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (a:AS {asn: 2497}) MATCH (a {asn: 15169}) RETURN a",
        )
        assert len(result) == 0

    def test_bound_variable_not_a_node_rejected(self, tiny_store):
        with pytest.raises(CypherTypeError):
            execute(tiny_store, "WITH 1 AS a MATCH (a)-[:X]->(b) RETURN b")


class TestRelationshipUniqueness:
    def test_same_relationship_not_reused_within_pattern(self):
        store = GraphStore()
        a = store.create_node(["N"], {"name": "a"})
        b = store.create_node(["N"], {"name": "b"})
        store.create_relationship(a.node_id, "X", b.node_id)
        # a-X->b exists once: the pattern (x)-[:X]-(y)-[:X]-(z) needs two
        # distinct X relationships, so it cannot match.
        result = execute(store, "MATCH (x)-[:X]-(y)-[:X]-(z) RETURN x, z")
        assert len(result) == 0

    def test_distinct_relationships_allow_back_and_forth(self):
        store = GraphStore()
        a = store.create_node(["N"], {"name": "a"})
        b = store.create_node(["N"], {"name": "b"})
        store.create_relationship(a.node_id, "X", b.node_id)
        store.create_relationship(b.node_id, "X", a.node_id)
        result = execute(store, "MATCH (x)-[:X]->(y)-[:X]->(z) RETURN count(*) AS c")
        assert result.single()["c"] == 2  # a->b->a and b->a->b

    def test_uniqueness_resets_across_match_clauses(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (a:AS {asn: 2497})-[r:PEERS_WITH]-(b) "
            "MATCH (a)-[r2:PEERS_WITH]-(c) RETURN b.asn, c.asn",
        )
        assert len(result) == 1  # same rel is usable in the second MATCH


class TestVariableLength:
    @pytest.fixture()
    def chain(self):
        store = GraphStore()
        nodes = [store.create_node(["N"], {"i": i}) for i in range(4)]
        for left, right in zip(nodes, nodes[1:]):
            store.create_relationship(left.node_id, "X", right.node_id)
        return store

    def test_fixed_range(self, chain):
        result = execute(
            chain, "MATCH (a {i: 0})-[:X*1..2]->(b) RETURN b.i ORDER BY b.i"
        )
        assert result.values() == [1, 2]

    def test_exact_hops(self, chain):
        result = execute(chain, "MATCH (a {i: 0})-[:X*3]->(b) RETURN b.i")
        assert result.values() == [3]

    def test_unbounded(self, chain):
        result = execute(chain, "MATCH (a {i: 0})-[:X*]->(b) RETURN b.i ORDER BY b.i")
        assert result.values() == [1, 2, 3]

    def test_zero_min_includes_self(self, chain):
        result = execute(chain, "MATCH (a {i: 0})-[:X*0..1]->(b) RETURN b.i ORDER BY b.i")
        assert result.values() == [0, 1]

    def test_var_length_binds_relationship_list(self, chain):
        result = execute(chain, "MATCH (a {i: 0})-[r:X*2]->(b) RETURN size(r) AS n")
        assert result.single()["n"] == 2

    def test_cycle_terminates(self):
        store = GraphStore()
        a = store.create_node(["N"], {"i": 0})
        b = store.create_node(["N"], {"i": 1})
        store.create_relationship(a.node_id, "X", b.node_id)
        store.create_relationship(b.node_id, "X", a.node_id)
        result = execute(store, "MATCH (s {i: 0})-[:X*]->(t) RETURN t.i ORDER BY t.i")
        # Paths: a->b (1 hop), a->b->a (2 hops, distinct rels). Then stuck.
        assert result.values() == [0, 1]

    def test_undirected_var_length(self, chain):
        result = execute(chain, "MATCH (a {i: 2})-[:X*1..1]-(b) RETURN b.i ORDER BY b.i")
        assert result.values() == [1, 3]

    @pytest.mark.parametrize(
        "left, right, reached, shortest",
        [
            ("-", "->", [0, 1, 1], [1]),
            ("<-", "-", [0], []),
            ("-", "-", [0, 1, 1], [1]),
        ],
        ids=["out", "in", "both"],
    )
    def test_self_loop_hop_each_direction(self, left, right, reached, shortest):
        # (a)-[:X]->(a) and (a)-[:X]->(b): the adjacency lookup for each
        # direction returns the self-loop exactly once.
        store = GraphStore()
        a = store.create_node(["N"], {"i": 0})
        b = store.create_node(["N"], {"i": 1})
        store.create_relationship(a.node_id, "X", a.node_id)
        store.create_relationship(a.node_id, "X", b.node_id)
        hops = f"{left}[:X*1..2]{right}"
        result = execute(store, f"MATCH (s {{i: 0}}){hops}(t) RETURN t.i ORDER BY t.i")
        assert result.values() == reached
        result = execute(
            store,
            f"MATCH (s {{i: 0}}), (t {{i: 1}}) "
            f"MATCH p = shortestPath((s){hops}(t)) RETURN length(p)",
        )
        assert result.values() == shortest


class TestPaths:
    def test_path_length_and_functions(self, tiny_store):
        record = execute(
            tiny_store,
            "MATCH p = (:AS {asn: 15169})-[:PEERS_WITH]-(:AS)-[:COUNTRY]->(:Country) "
            "RETURN length(p) AS len, size(nodes(p)) AS n, size(relationships(p)) AS r",
        ).single()
        assert (record["len"], record["n"], record["r"]) == (2, 3, 2)

    def test_path_over_var_length_includes_intermediates(self):
        store = GraphStore()
        nodes = [store.create_node(["N"], {"i": i}) for i in range(3)]
        for left, right in zip(nodes, nodes[1:]):
            store.create_relationship(left.node_id, "X", right.node_id)
        record = execute(
            store,
            "MATCH p = (a {i: 0})-[:X*2]->(b) RETURN [n IN nodes(p) | n.i] AS seq",
        ).single()
        assert record["seq"] == [0, 1, 2]


class TestOptionalMatch:
    def test_optional_pads_with_null(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (c:Country) OPTIONAL MATCH (c)<-[p:POPULATION]-(a:AS) "
            "RETURN c.country_code AS cc, a.asn AS asn ORDER BY cc",
        )
        rows = [record.to_dict() for record in result]
        assert rows == [{"cc": "JP", "asn": 2497}, {"cc": "US", "asn": None}]

    def test_optional_where_is_part_of_match(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (c:Country) OPTIONAL MATCH (c)<-[:COUNTRY]-(a:AS) "
            "WHERE a.asn > 10000 RETURN c.country_code AS cc, a.asn AS asn ORDER BY cc",
        )
        rows = [record.to_dict() for record in result]
        assert rows == [{"cc": "JP", "asn": None}, {"cc": "US", "asn": 15169}]

    def test_optional_path_variable_padded(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (c:Country {country_code: 'US'}) "
            "OPTIONAL MATCH p = (c)<-[:POPULATION]-(:AS) RETURN p",
        )
        assert result.single()["p"] is None


class TestWhereOnMatch:
    def test_where_filters(self, tiny_store):
        result = execute(
            tiny_store, "MATCH (a:AS) WHERE a.asn > 10000 RETURN a.asn"
        )
        assert result.values() == [15169]

    def test_where_null_is_dropped(self, tiny_store):
        result = execute(
            tiny_store, "MATCH (a:AS) WHERE a.missing > 1 RETURN a.asn"
        )
        assert len(result) == 0

    def test_pattern_predicate_in_where(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (a:AS) WHERE (a)-[:ORIGINATE]->(:Prefix) RETURN a.asn",
        )
        assert result.values() == [2497]

    def test_not_pattern_predicate(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (a:AS) WHERE NOT (a)-[:ORIGINATE]->(:Prefix) RETURN a.asn",
        )
        assert result.values() == [15169]

    def test_exists_pattern(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (a:AS) WHERE exists((a)-[:POPULATION]->()) RETURN a.asn",
        )
        assert result.values() == [2497]
