"""Edge-case tests for the Cypher engine (caching, config, odd shapes)."""

import sys
import threading

import pytest

from repro.cypher import CypherEngine, CypherSyntaxError, CypherTypeError, execute
from repro.cypher.errors import CypherError
from repro.cypher.result import render_value
from repro.graph import GraphStore
from repro.graph.model import Node, Path, Relationship


class TestEngineMachinery:
    def test_ast_cache_reused(self, tiny_store):
        """A repeated text reuses its entry; a new text of a known shape
        reuses the shape's tree and plans, with values of its own."""
        engine = CypherEngine(tiny_store)
        query = "MATCH (a:AS {asn: 2497}) RETURN a.name AS name"
        assert engine.run(query).single()["name"] == "IIJ"
        cached = engine._entries[query]
        engine.run(query)
        assert engine._entries[query] is cached
        plans = cached.shape.plans
        other = "MATCH (a:AS {asn: 15169}) RETURN a.name AS name"
        assert engine.run(other).single()["name"] == "GOOGLE"
        assert engine._entries[other].shape is cached.shape
        assert cached.shape.plans is plans
        assert engine.cache_stats()["shapes"] == 1

    @pytest.mark.parametrize("query", [
        r"RETURN '\uZZZZ' AS x", r"RETURN '\u00' AS x", "RETURN ² AS x", "RETURN 1² AS x",
        # past int()'s 4,300-digit limit
        pytest.param("RETURN " + "9" * 5000 + " AS x", id="long_int"),
        pytest.param("MATCH (a)-[*1.." + "9" * 5000 + "]-(b) RETURN a", id="long_hops"),
    ])
    def test_malformed_literal_is_syntax_error(self, tiny_store, query):
        with pytest.raises(CypherSyntaxError):
            CypherEngine(tiny_store).execute(query)

    def test_execute_with_params_dict(self, tiny_store):
        engine = CypherEngine(tiny_store)
        query = "MATCH (a:AS {asn: $asn}) RETURN a.name AS name"
        result = engine.execute(query, {"asn": 2497})
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
        """Both levels hold at most ``cache_size`` entries: texts, and
        shapes (each alias makes a shape of its own)."""
        engine = CypherEngine(tiny_store)
        engine._entries.clear()
        for i in range(1030):
            engine.run(f"RETURN {i} AS c{i}")
        engine.run("RETURN 2 AS c2")
        assert len(engine._entries) == 1024
        assert len(engine._shapes) == 1024
        assert engine.cache_stats()["entries"] == 1024
        assert engine.cache_stats()["shapes"] == 1024
        assert engine.run("RETURN 1030 AS c1029").single()["c1029"] == 1030
        assert engine.cache_stats()["shapes"] == 1024

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


_NODE = Node(3, ["Prefix", "AS"], {"asn": 2497, "name": "IIJ", "w": 0.5})
_REL = Relationship(9, "ORIGINATE", 3, 4, {"count": 2, "src": ["bgp", None]})
_PATH = Path(
    [Node(0, ["N"]), Node(1, ["N"]), Node(2, ["N"])],
    [Relationship(0, "X", 0, 1), Relationship(1, "X", 2, 1)],
)

#: (value, rendering) pairs recorded before the exact-class fast path for
#: ``str``/``int`` went in; the fast path must not change any of them.
_RENDERINGS = [
    (None, "null"),
    (True, "true"),
    (False, "false"),
    (0, "0"),
    (-12, "-12"),
    (2**70, "1180591620717411303424"),
    (2.0, "2.0"),
    (-3.0, "-3.0"),
    (1e15, "1e+15"),
    (0.5, "0.5"),
    (-2.25, "-2.25"),
    (1e-7, "1e-07"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (float("nan"), "nan"),
    ("", ""),
    ("x y", "x y"),
    ([], "[]"),
    ([1, "a", None, 2.0], "[1, a, null, 2.0]"),
    ({}, "{}"),
    ({"b": 1, "a": [True]}, "{a: [true], b: 1}"),
    (_NODE, "(:AS:Prefix {asn: 2497, name: IIJ, w: 0.5})"),
    (_REL, "[:ORIGINATE {count: 2, src: [bgp, null]}]"),
    (_PATH, "<path length=2>"),
    ([_NODE, [1.0, float("nan")]], "[(:AS:Prefix {asn: 2497, name: IIJ, w: 0.5}), [1.0, nan]]"),
    ({"k": _REL}, "{k: [:ORIGINATE {count: 2, src: [bgp, null]}]}"),
]


class TestRenderValue:
    def test_scalars(self):
        assert render_value(None) == "null"
        assert render_value(True) == "true"
        assert render_value(False) == "false"
        assert render_value(2.0) == "2.0"
        assert render_value(0.5) == "0.5"
        assert render_value("x") == "x"
        assert render_value(7) == "7"

    @pytest.mark.parametrize("value, text", _RENDERINGS, ids=repr)
    def test_rendering_is_unchanged(self, value, text):
        assert render_value(value) == text

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

    @pytest.mark.parametrize(
        "expression",
        [
            "sqrt(-1)",
            "log(0)",
            "toInteger(0.0/0.0)",
            "floor(0.0/0.0)",
            "split('a', '')",
            "exp(1000)",
            "10^1000",
            "ceil(1.0/0.0)",
            "'abc' =~ '['",
            "[1,2,3][0..'a']",
        ],
    )
    def test_python_failures_surface_as_cypher_errors(self, expression):
        engine = CypherEngine(GraphStore())
        with pytest.raises(CypherError):
            engine.execute(f"RETURN {expression} AS x")

    @pytest.mark.parametrize("planner", [True, False])
    @pytest.mark.parametrize(
        "query, params",
        [
            ("MATCH (a:AS) WHERE a.asn = $x RETURN a.asn", {"x": {"k": 1}}),
            ("MATCH (a:AS {asn: [1, {k: 1}]}) RETURN a.asn", {}),
            (
                "MATCH (a:AS)-[:COUNTRY]->(c:Country {country_code: $x}) RETURN a.asn",
                {"x": {"k": 1}},
            ),
        ],
    )
    def test_map_lookup_value_matches_no_node(self, small_store, planner, query, params):
        # No stored property is a map, so an indexed exact-match lookup by a
        # map (or a list holding one) finds nothing, as the WHERE would say.
        result = CypherEngine(small_store, planner=planner).execute(query, params)
        assert len(result) == 0

    @pytest.mark.parametrize("planner", [True, False])
    @pytest.mark.parametrize(
        "query",
        [
            "CREATE (n:Tag {m: {k: 1}})",
            "CREATE (n:Tag) SET n.m = {k: 1}",
            "CREATE (:Tag)-[:X {m: [{k: 1}]}]->(:Tag)",
        ],
    )
    def test_map_property_write_is_cypher_type_error(self, planner, query):
        with pytest.raises(CypherTypeError, match="unsupported property value type"):
            CypherEngine(GraphStore(), planner=planner).execute(query)
