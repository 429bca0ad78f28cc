"""Edge-case tests for the Cypher engine (caching, config, odd shapes)."""

import sys
import threading

import pytest

from repro.cypher import CypherEngine, CypherSyntaxError, execute, parse
from repro.cypher.result import render_value
from repro.graph import GraphStore
from repro.graph.model import Node, Path, Relationship


class TestEngineMachinery:
    def test_ast_cache_reused(self, tiny_store):
        engine = CypherEngine(tiny_store)
        query = "MATCH (a:AS) RETURN count(*)"
        engine.run(query)
        cached = engine._ast_cache[query]
        engine.run(query)
        assert engine._ast_cache[query] is cached

    def test_run_ast_directly(self, tiny_store):
        engine = CypherEngine(tiny_store)
        tree = parse("MATCH (a:AS {asn: $asn}) RETURN a.name AS name")
        result = engine.run_ast(tree, {"asn": 2497})
        assert result.single()["name"] == "IIJ"

    def test_max_var_length_limits_expansion(self):
        store = GraphStore()
        nodes = [store.create_node(["N"], {"i": i}) for i in range(6)]
        for left, right in zip(nodes, nodes[1:]):
            store.create_relationship(left.node_id, "X", right.node_id)
        engine = CypherEngine(store, max_var_length=2)
        result = engine.run("MATCH (a {i: 0})-[:X*]->(b) RETURN count(*) AS c")
        assert result.single()["c"] == 2  # capped at 2 hops

    def test_cache_eviction_on_overflow(self, tiny_store):
        engine = CypherEngine(tiny_store)
        engine._ast_cache.clear()
        for i in range(1030):
            engine._ast_cache[f"fake {i}"] = parse("RETURN 1")
        engine.run("RETURN 2")
        assert len(engine._ast_cache) < 1030

    def test_lru_cache_survives_concurrent_eviction(self):
        """A reader never sees KeyError when a writer evicts its key."""
        from repro.cypher.executor import _LRUCache

        cache = _LRUCache(4)
        errors: list[Exception] = []
        stop = threading.Event()

        def reader() -> None:
            try:
                while not stop.is_set():
                    for key in range(8):
                        cache.get(key)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def writer() -> None:
            try:
                for _ in range(5000):
                    for key in range(8):
                        cache[key] = key
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(2)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, f"concurrent cache access raised {errors[0]!r}"
        assert len(cache) == 4


class TestProjectionEdgeCases:
    def test_return_map_and_list_values(self, tiny_store):
        record = execute(
            tiny_store,
            "MATCH (a:AS {asn: 2497}) RETURN {asn: a.asn, tags: [1, 2]} AS blob",
        ).single()
        assert record["blob"] == {"asn": 2497, "tags": [1, 2]}

    def test_return_node_value(self, tiny_store):
        record = execute(tiny_store, "MATCH (a:AS {asn: 2497}) RETURN a").single()
        assert isinstance(record["a"], Node)

    def test_distinct_on_nodes(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (a:AS {asn: 2497})-[:COUNTRY|POPULATION]->(c:Country) "
            "RETURN DISTINCT c",
        )
        assert len(result) == 1

    def test_order_by_mixed_types_is_stable(self):
        store = GraphStore()
        for value in (3, "b", True, 1, "a", None):
            store.create_node(["N"], {"v": value})
        result = execute(store, "MATCH (n:N) RETURN n.v AS v ORDER BY v")
        values = result.values("v")
        # numbers first, then strings, then booleans, null last
        assert values == [1, 3, "a", "b", True, None]

    def test_with_aggregate_then_order_in_return(self):
        store = GraphStore()
        for group, value in [("a", 1), ("a", 2), ("b", 5)]:
            store.create_node(["N"], {"g": group, "v": value})
        result = execute(
            store,
            "MATCH (n:N) WITH n.g AS g, sum(n.v) AS total "
            "RETURN g, total ORDER BY total DESC",
        )
        assert result.values("g") == ["b", "a"]

    def test_list_parameter(self, tiny_store):
        result = execute(
            tiny_store,
            "MATCH (a:AS) WHERE a.asn IN $asns RETURN count(*) AS c",
            asns=[2497, 15169, 1],
        )
        assert result.single()["c"] == 2

    def test_skip_larger_than_rows(self, tiny_store):
        result = execute(tiny_store, "MATCH (a:AS) RETURN a.asn SKIP 100")
        assert len(result) == 0

    def test_label_predicate_in_return(self, tiny_store):
        result = execute(
            tiny_store, "MATCH (n) RETURN n:AS AS is_as, count(*) AS c ORDER BY c"
        )
        flags = {record["is_as"]: record["c"] for record in result}
        assert flags[True] == 2
        assert flags[False] == 3

    def test_aggregate_of_case_expression(self):
        store = GraphStore()
        for value in (1, 5, 10):
            store.create_node(["N"], {"v": value})
        record = execute(
            store,
            "MATCH (n:N) RETURN sum(CASE WHEN n.v > 2 THEN 1 ELSE 0 END) AS big",
        ).single()
        assert record["big"] == 2


class TestRenderValue:
    def test_scalars(self):
        assert render_value(None) == "null"
        assert render_value(True) == "true"
        assert render_value(False) == "false"
        assert render_value(2.0) == "2.0"
        assert render_value(0.5) == "0.5"
        assert render_value("x") == "x"
        assert render_value(7) == "7"

    def test_node_and_relationship(self):
        node = Node(1, ["AS"], {"asn": 2497})
        assert render_value(node) == "(:AS {asn: 2497})"
        rel = Relationship(1, "POPULATION", 0, 1, {"percent": 5.3})
        assert render_value(rel) == "[:POPULATION {percent: 5.3}]"

    def test_path(self):
        nodes = [Node(0, ["N"]), Node(1, ["N"])]
        rels = [Relationship(0, "X", 0, 1)]
        assert "length=1" in render_value(Path(nodes, rels))

    def test_collections(self):
        assert render_value([1, "a", None]) == "[1, a, null]"
        assert render_value({"b": 2, "a": 1}) == "{a: 1, b: 2}"

    def test_large_float_not_decimal_formatted(self):
        assert render_value(1e20) == "1e+20"


class TestErrorPaths:
    def test_helpful_error_for_unknown_clause_keyword(self, tiny_store):
        with pytest.raises(CypherSyntaxError):
            execute(tiny_store, "FETCH (a) RETURN a")

    def test_where_before_any_match(self, tiny_store):
        with pytest.raises(CypherSyntaxError):
            execute(tiny_store, "WHERE a.x = 1 RETURN a")

    def test_error_message_has_line_and_column(self, tiny_store):
        with pytest.raises(CypherSyntaxError) as exc_info:
            execute(tiny_store, "MATCH (a:AS)\nRETRUN a")
        assert "line 2" in str(exc_info.value)
