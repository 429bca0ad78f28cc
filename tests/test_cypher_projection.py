"""Projection semantics: aggregation, DISTINCT, ORDER BY, WITH, UNWIND, UNION."""

import pytest

from repro.cypher import CypherRuntimeError, CypherSyntaxError, execute
from repro.graph import GraphStore


@pytest.fixture()
def people():
    """Five nodes with (group, value): a1 a2 a3 / b10 b20."""
    store = GraphStore()
    for group, value in [("a", 1), ("a", 2), ("a", 3), ("b", 10), ("b", 20)]:
        store.create_node(["P"], {"g": group, "v": value})
    return store


class TestAggregation:
    def test_count_star(self, people):
        assert execute(people, "MATCH (p:P) RETURN count(*) AS c").single()["c"] == 5

    def test_count_expression_skips_nulls(self, people):
        store = GraphStore()
        store.create_node(["P"], {"v": 1})
        store.create_node(["P"], {})
        assert execute(store, "MATCH (p:P) RETURN count(p.v) AS c").single()["c"] == 1

    def test_count_distinct(self, people):
        result = execute(people, "MATCH (p:P) RETURN count(DISTINCT p.g) AS c")
        assert result.single()["c"] == 2

    def test_sum_avg_min_max(self, people):
        record = execute(
            people,
            "MATCH (p:P) RETURN sum(p.v) AS s, avg(p.v) AS a, min(p.v) AS lo, max(p.v) AS hi",
        ).single()
        assert (record["s"], record["a"], record["lo"], record["hi"]) == (36, 7.2, 1, 20)

    def test_collect(self, people):
        record = execute(
            people, "MATCH (p:P) WHERE p.g = 'a' RETURN collect(p.v) AS vs"
        ).single()
        assert sorted(record["vs"]) == [1, 2, 3]

    def test_collect_distinct(self, people):
        record = execute(people, "MATCH (p:P) RETURN collect(DISTINCT p.g) AS gs").single()
        assert sorted(record["gs"]) == ["a", "b"]

    def test_grouping_by_non_aggregate_items(self, people):
        result = execute(
            people, "MATCH (p:P) RETURN p.g AS g, count(*) AS c ORDER BY g"
        )
        assert [record.to_dict() for record in result] == [
            {"g": "a", "c": 3},
            {"g": "b", "c": 2},
        ]

    def test_aggregate_inside_expression(self, people):
        record = execute(
            people, "MATCH (p:P) RETURN sum(p.v) * 1.0 / count(*) AS mean"
        ).single()
        assert record["mean"] == pytest.approx(7.2)

    def test_scalar_function_of_aggregate(self, people):
        record = execute(people, "MATCH (p:P) RETURN toString(count(*)) AS c").single()
        assert record["c"] == "5"

    def test_aggregate_over_empty_input_yields_one_row(self, people):
        record = execute(people, "MATCH (p:Missing) RETURN count(*) AS c").single()
        assert record["c"] == 0

    def test_sum_over_empty_is_zero_avg_is_null(self, people):
        record = execute(
            people, "MATCH (p:Missing) RETURN sum(p.v) AS s, avg(p.v) AS a"
        ).single()
        assert record["s"] == 0
        assert record["a"] is None

    def test_grouped_aggregate_with_no_rows_is_empty(self, people):
        result = execute(people, "MATCH (p:Missing) RETURN p.g, count(*)")
        assert len(result) == 0

    def test_stdev(self, people):
        record = execute(
            people, "MATCH (p:P) WHERE p.g = 'a' RETURN stDev(p.v) AS sd"
        ).single()
        assert record["sd"] == pytest.approx(1.0)

    def test_percentile_cont(self, people):
        record = execute(
            people, "MATCH (p:P) RETURN percentileCont(p.v, 0.5) AS median"
        ).single()
        assert record["median"] == 3

    def test_percentile_disc(self, people):
        record = execute(
            people, "MATCH (p:P) RETURN percentileDisc(p.v, 0.0) AS lo"
        ).single()
        assert record["lo"] == 1

    def test_aggregate_in_where_rejected(self, people):
        with pytest.raises(CypherSyntaxError):
            execute(people, "MATCH (p:P) WHERE count(*) > 1 RETURN p")


class TestDistinctOrderLimit:
    def test_distinct(self, people):
        result = execute(people, "MATCH (p:P) RETURN DISTINCT p.g ORDER BY p.g")
        assert result.values() == ["a", "b"]

    def test_order_by_descending(self, people):
        result = execute(people, "MATCH (p:P) RETURN p.v ORDER BY p.v DESC")
        assert result.values() == [20, 10, 3, 2, 1]

    def test_order_by_multiple_keys(self, people):
        result = execute(
            people, "MATCH (p:P) RETURN p.g AS g, p.v AS v ORDER BY g DESC, v"
        )
        assert [r.to_dict() for r in result][:3] == [
            {"g": "b", "v": 10},
            {"g": "b", "v": 20},
            {"g": "a", "v": 1},
        ]

    def test_order_by_alias(self, people):
        result = execute(people, "MATCH (p:P) RETURN p.v AS value ORDER BY value DESC LIMIT 1")
        assert result.single()["value"] == 20

    def test_order_by_aggregate(self, people):
        result = execute(
            people, "MATCH (p:P) RETURN p.g AS g, count(*) AS c ORDER BY count(*) DESC"
        )
        assert result.values("g") == ["a", "b"]

    def test_nulls_sort_last_ascending(self):
        store = GraphStore()
        store.create_node(["P"], {"v": 2})
        store.create_node(["P"], {})
        store.create_node(["P"], {"v": 1})
        result = execute(store, "MATCH (p:P) RETURN p.v ORDER BY p.v")
        assert result.values() == [1, 2, None]

    def test_skip_limit(self, people):
        result = execute(people, "MATCH (p:P) RETURN p.v ORDER BY p.v SKIP 1 LIMIT 2")
        assert result.values() == [2, 3]

    def test_limit_zero(self, people):
        assert len(execute(people, "MATCH (p:P) RETURN p.v LIMIT 0")) == 0

    def test_negative_limit_rejected(self, people):
        with pytest.raises(CypherRuntimeError):
            execute(people, "MATCH (p:P) RETURN p.v LIMIT -1")

    def test_return_star(self, people):
        result = execute(people, "MATCH (p:P) RETURN * LIMIT 1")
        assert result.keys == ["p"]


class TestWithChaining:
    def test_with_projects_and_filters(self, people):
        result = execute(
            people,
            "MATCH (p:P) WITH p.g AS g, count(*) AS c WHERE c > 2 RETURN g",
        )
        assert result.values() == ["a"]

    def test_with_order_limit_then_more(self, people):
        result = execute(
            people,
            "MATCH (p:P) WITH p ORDER BY p.v DESC LIMIT 2 RETURN sum(p.v) AS s",
        )
        assert result.single()["s"] == 30

    def test_with_star(self, people):
        result = execute(
            people, "MATCH (p:P) WITH *, p.v * 2 AS double RETURN p.v, double LIMIT 1"
        )
        record = result.single()
        assert record["double"] == record["p.v"] * 2

    def test_star_over_zero_rows(self, people):
        """``*`` expands to the bound variables even when no row exists."""
        result = execute(people, "MATCH (p:P {v: -1}) RETURN *")
        assert result.keys == ["p"]
        assert len(result) == 0
        result = execute(people, "MATCH (p:P {v: -1}) WITH * RETURN count(*) AS c")
        assert result.single()["c"] == 0
        result = execute(
            people,
            "MATCH (p:P {v: -1}) OPTIONAL MATCH (p)-[r]->(q) "
            "UNWIND [1] AS u WITH *, count(*) AS c RETURN *",
        )
        assert result.keys == ["c", "p", "q", "r", "u"]
        assert len(result) == 0

    def test_star_keeps_optional_nulls(self, people):
        result = execute(
            people, "MATCH (p:P {v: 1}) OPTIONAL MATCH (p)-[r]->(q) RETURN *"
        )
        assert result.keys == ["p", "q", "r"]
        assert result.single()["q"] is None

    def test_star_with_nothing_bound_is_rejected(self, people):
        with pytest.raises(CypherSyntaxError):
            execute(people, "RETURN *")

    def test_variables_not_carried_are_dropped(self, people):
        with pytest.raises(CypherRuntimeError):
            execute(people, "MATCH (p:P) WITH p.g AS g RETURN p")

    def test_chained_aggregation(self, people):
        # Aggregate over aggregates: count groups.
        result = execute(
            people,
            "MATCH (p:P) WITH p.g AS g, count(*) AS c RETURN count(*) AS groups",
        )
        assert result.single()["groups"] == 2


class TestUnwind:
    def test_unwind_literal(self, people):
        result = execute(people, "UNWIND [1, 2, 3] AS x RETURN x")
        assert result.values() == [1, 2, 3]

    def test_unwind_collected(self, people):
        result = execute(
            people,
            "MATCH (p:P) WITH collect(p.v) AS vs UNWIND vs AS v "
            "RETURN count(v) AS c",
        )
        assert result.single()["c"] == 5

    def test_unwind_null_produces_no_rows(self, people):
        assert len(execute(people, "UNWIND null AS x RETURN x")) == 0

    def test_unwind_scalar_behaves_as_singleton(self, people):
        assert execute(people, "UNWIND 5 AS x RETURN x").values() == [5]

    def test_unwind_cross_product(self, people):
        result = execute(
            people, "UNWIND [1,2] AS a UNWIND [10,20] AS b RETURN a * b AS v ORDER BY v"
        )
        assert result.values() == [10, 20, 20, 40]


class TestUnion:
    def test_union_dedupes(self, people):
        result = execute(
            people,
            "MATCH (p:P {g: 'a'}) RETURN p.g AS g UNION MATCH (p:P) RETURN p.g AS g",
        )
        assert sorted(result.values()) == ["a", "b"]

    def test_union_all_keeps_duplicates(self, people):
        result = execute(
            people, "RETURN 1 AS x UNION ALL RETURN 1 AS x"
        )
        assert result.values() == [1, 1]

    def test_union_requires_same_columns(self, people):
        with pytest.raises(CypherSyntaxError):
            execute(people, "RETURN 1 AS x UNION RETURN 2 AS y")


class TestResultSetApi:
    def test_single_raises_on_many(self, people):
        with pytest.raises(ValueError):
            execute(people, "MATCH (p:P) RETURN p").single()

    def test_value_default_on_empty(self, people):
        result = execute(people, "MATCH (p:Missing) RETURN p.v")
        assert result.value(default="none") == "none"

    def test_to_dicts(self, people):
        rows = execute(people, "RETURN 1 AS a, 'x' AS b").to_dicts()
        assert rows == [{"a": 1, "b": "x"}]

    def test_to_table_truncation(self, people):
        table = execute(people, "MATCH (p:P) RETURN p.v").to_table(max_rows=2)
        assert "more rows" in table

    def test_record_access_by_index_and_key(self, people):
        record = execute(people, "RETURN 1 AS a, 2 AS b").single()
        assert record[0] == 1
        assert record["b"] == 2
        assert record.get("zz", 9) == 9
        with pytest.raises(KeyError):
            record["zz"]
