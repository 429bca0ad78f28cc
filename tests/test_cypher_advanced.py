"""Tests for advanced Cypher features: shortestPath, quantifiers, reduce."""

import pytest

from repro.cypher import (
    CypherEngine,
    CypherRuntimeError,
    CypherSyntaxError,
    CypherTypeError,
    execute,
)
from repro.graph import GraphStore


@pytest.fixture()
def topology():
    """A small AS topology with known shortest paths.

        1 - 2 - 3 - 4      (PEERS_WITH chain)
        1 ------- 4        (direct DEPENDS_ON edge)
        1 - 5 - 4          (alternative PEERS_WITH route)
    """
    store = GraphStore()
    nodes = {i: store.create_node(["AS"], {"asn": i}) for i in range(1, 6)}

    def peer(a, b):
        store.create_relationship(nodes[a].node_id, "PEERS_WITH", nodes[b].node_id)

    peer(1, 2)
    peer(2, 3)
    peer(3, 4)
    peer(1, 5)
    peer(5, 4)
    store.create_relationship(nodes[1].node_id, "DEPENDS_ON", nodes[4].node_id)
    return store


class TestShortestPath:
    def test_shortest_path_length(self, topology):
        record = execute(
            topology,
            "MATCH (a:AS {asn: 1}), (b:AS {asn: 4}) "
            "MATCH p = shortestPath((a)-[:PEERS_WITH*]-(b)) "
            "RETURN length(p) AS len",
        ).single()
        assert record["len"] == 2  # via AS5

    def test_shortest_path_nodes(self, topology):
        record = execute(
            topology,
            "MATCH (a:AS {asn: 1}), (b:AS {asn: 4}) "
            "MATCH p = shortestPath((a)-[:PEERS_WITH*]-(b)) "
            "RETURN [n IN nodes(p) | n.asn] AS seq",
        ).single()
        assert record["seq"] == [1, 5, 4]

    def test_any_type_prefers_direct_edge(self, topology):
        record = execute(
            topology,
            "MATCH (a:AS {asn: 1}), (b:AS {asn: 4}) "
            "MATCH p = shortestPath((a)-[*]-(b)) RETURN length(p) AS len",
        ).single()
        assert record["len"] == 1  # the DEPENDS_ON shortcut

    def test_all_shortest_paths(self, topology):
        # Make a second 2-hop PEERS_WITH route: 1-2 then 2-4.
        nodes = {n["asn"]: n for n in topology.nodes_by_label("AS")}
        topology.create_relationship(
            nodes[2].node_id, "PEERS_WITH", nodes[4].node_id
        )
        result = execute(
            topology,
            "MATCH (a:AS {asn: 1}), (b:AS {asn: 4}) "
            "MATCH p = allShortestPaths((a)-[:PEERS_WITH*]-(b)) "
            "RETURN [n IN nodes(p) | n.asn] AS seq ORDER BY seq",
        )
        assert result.values("seq") == [[1, 2, 4], [1, 5, 4]]

    def test_no_path_yields_no_rows(self, topology):
        lonely = topology.create_node(["AS"], {"asn": 99})
        result = execute(
            topology,
            "MATCH (a:AS {asn: 1}), (b:AS {asn: 99}) "
            "MATCH p = shortestPath((a)-[*]-(b)) RETURN p",
        )
        assert len(result) == 0

    def test_max_hop_bound_respected(self, topology):
        result = execute(
            topology,
            "MATCH (a:AS {asn: 1}), (b:AS {asn: 3}) "
            "MATCH p = shortestPath((a)-[:PEERS_WITH*..1]-(b)) RETURN p",
        )
        assert len(result) == 0  # AS3 is two PEERS_WITH hops away

    def test_zero_length_allowed_when_pattern_allows(self, topology):
        record = execute(
            topology,
            "MATCH (a:AS {asn: 1}) "
            "MATCH p = shortestPath((a)-[*0..2]-(a)) RETURN length(p) AS len",
        ).single()
        assert record["len"] == 0

    def test_directed_shortest_path(self, topology):
        record = execute(
            topology,
            "MATCH (a:AS {asn: 1}), (b:AS {asn: 4}) "
            "MATCH p = shortestPath((a)-[:PEERS_WITH*]->(b)) RETURN length(p) AS len",
        ).single()
        assert record["len"] == 2  # edges all point forward on 1-5-4

    def test_shortest_requires_single_segment(self, topology):
        with pytest.raises(CypherSyntaxError):
            execute(
                topology,
                "MATCH p = shortestPath((a)-[:X]->(b)-[:Y]->(c)) RETURN p",
            )


class TestQuantifiers:
    def test_any(self, tiny_store):
        record = execute(
            tiny_store, "RETURN any(x IN [1, 2, 3] WHERE x > 2) AS v"
        ).single()
        assert record["v"] is True

    def test_any_false(self, tiny_store):
        assert execute(tiny_store, "RETURN any(x IN [1, 2] WHERE x > 5) AS v").single()["v"] is False

    def test_all(self, tiny_store):
        assert execute(tiny_store, "RETURN all(x IN [1, 2] WHERE x > 0) AS v").single()["v"] is True
        assert execute(tiny_store, "RETURN all(x IN [1, 2] WHERE x > 1) AS v").single()["v"] is False

    def test_none(self, tiny_store):
        assert execute(tiny_store, "RETURN none(x IN [1, 2] WHERE x > 5) AS v").single()["v"] is True

    def test_single(self, tiny_store):
        assert execute(tiny_store, "RETURN single(x IN [1, 2, 3] WHERE x = 2) AS v").single()["v"] is True
        assert execute(tiny_store, "RETURN single(x IN [2, 2] WHERE x = 2) AS v").single()["v"] is False

    def test_null_semantics(self, tiny_store):
        assert execute(tiny_store, "RETURN any(x IN [null, 1] WHERE x > 0) AS v").single()["v"] is True
        assert execute(tiny_store, "RETURN any(x IN [null] WHERE x > 0) AS v").single()["v"] is None
        assert execute(tiny_store, "RETURN all(x IN [null, 1] WHERE x > 0) AS v").single()["v"] is None

    def test_null_source(self, tiny_store):
        assert execute(tiny_store, "RETURN all(x IN null WHERE x > 0) AS v").single()["v"] is None

    def test_empty_list(self, tiny_store):
        assert execute(tiny_store, "RETURN all(x IN [] WHERE x > 0) AS v").single()["v"] is True
        assert execute(tiny_store, "RETURN any(x IN [] WHERE x > 0) AS v").single()["v"] is False

    def test_non_list_rejected(self, tiny_store):
        with pytest.raises(CypherTypeError):
            execute(tiny_store, "RETURN any(x IN 5 WHERE x > 0)")

    def test_quantifier_over_path_nodes(self, tiny_store):
        record = execute(
            tiny_store,
            "MATCH p = (:AS {asn: 15169})-[:PEERS_WITH]-(:AS) "
            "RETURN all(n IN nodes(p) WHERE n.asn > 0) AS v",
        ).single()
        assert record["v"] is True

    def test_all_as_plain_function_still_errors_gracefully(self, tiny_store):
        # all() without quantifier syntax is not a registered function.
        from repro.cypher.errors import UnknownFunctionError

        with pytest.raises(UnknownFunctionError):
            execute(tiny_store, "RETURN all([1, 2]) AS v")


class TestReduce:
    def test_sum_via_reduce(self, tiny_store):
        record = execute(
            tiny_store, "RETURN reduce(acc = 0, x IN [1, 2, 3] | acc + x) AS v"
        ).single()
        assert record["v"] == 6

    def test_string_fold(self, tiny_store):
        record = execute(
            tiny_store,
            "RETURN reduce(s = '', w IN ['a', 'b', 'c'] | s + w) AS v",
        ).single()
        assert record["v"] == "abc"

    def test_reduce_over_null_is_null(self, tiny_store):
        assert execute(
            tiny_store, "RETURN reduce(acc = 0, x IN null | acc + x) AS v"
        ).single()["v"] is None

    def test_reduce_empty_list_returns_initial(self, tiny_store):
        assert execute(
            tiny_store, "RETURN reduce(acc = 42, x IN [] | acc + x) AS v"
        ).single()["v"] == 42

    def test_reduce_over_path_hegemony(self, topology=None):
        store = GraphStore()
        a = store.create_node(["AS"], {"asn": 1})
        b = store.create_node(["AS"], {"asn": 2})
        c = store.create_node(["AS"], {"asn": 3})
        store.create_relationship(a.node_id, "DEPENDS_ON", b.node_id, {"hege": 0.5})
        store.create_relationship(b.node_id, "DEPENDS_ON", c.node_id, {"hege": 0.5})
        record = execute(
            store,
            "MATCH p = (:AS {asn: 1})-[:DEPENDS_ON*2]->(:AS {asn: 3}) "
            "RETURN reduce(acc = 1.0, r IN relationships(p) | acc * r.hege) AS v",
        ).single()
        assert record["v"] == pytest.approx(0.25)

    def test_non_list_rejected(self, tiny_store):
        with pytest.raises(CypherTypeError):
            execute(tiny_store, "RETURN reduce(acc = 0, x IN 'abc' | acc) AS v")


class TestPatternComprehension:
    def test_collects_projection_per_match(self, tiny_store):
        record = execute(
            tiny_store,
            "MATCH (a:AS {asn: 2497}) "
            "RETURN [(a)-[:COUNTRY|POPULATION]->(c:Country) | c.country_code] AS ccs",
        ).single()
        assert sorted(record["ccs"]) == ["JP", "JP"]

    def test_where_filters_matches(self, tiny_store):
        record = execute(
            tiny_store,
            "MATCH (a:AS {asn: 2497}) "
            "RETURN [(a)-[r]->(c:Country) WHERE r.percent IS NOT NULL | r.percent] AS shares",
        ).single()
        assert record["shares"] == [5.3]

    def test_empty_when_no_match(self, tiny_store):
        record = execute(
            tiny_store,
            "MATCH (a:AS {asn: 15169}) RETURN [(a)-[:ORIGINATE]->(p) | p.prefix] AS ps",
        ).single()
        assert record["ps"] == []

    def test_size_of_pattern_comprehension(self, tiny_store):
        record = execute(
            tiny_store,
            "MATCH (a:AS) RETURN a.asn AS asn, "
            "size([(a)-[:PEERS_WITH]-(b) | b]) AS peers ORDER BY asn",
        )
        assert [r.to_dict() for r in record] == [
            {"asn": 2497, "peers": 1},
            {"asn": 15169, "peers": 1},
        ]

    def test_plain_parenthesised_list_still_works(self, tiny_store):
        record = execute(
            tiny_store, "RETURN [(1 + 2) - 3, 4] AS xs"
        ).single()
        assert record["xs"] == [0, 4]

    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "unplanned"])
    def test_unbound_variable_raises_like_any_expression(self, tiny_store, planner):
        # After a global aggregate over no rows, ORDER BY sees only the
        # projected columns: a pattern expression over ``a`` fails the way
        # ``a.asn`` does, instead of treating ``a`` as a fresh variable.
        engine = CypherEngine(tiny_store, planner=planner)
        prefix = "MATCH (a:AS) WHERE a.asn < 0 RETURN count(*) AS n ORDER BY "
        for order_key in ("a.asn", "size([(a)-[:PEERS_WITH]-(b) | b])"):
            with pytest.raises(CypherRuntimeError, match="unknown variable: a"):
                engine.run(prefix + order_key)
