"""Edge-case coverage for scalar/aggregate functions and paging bounds.

Null propagation through scalar and aggregate functions, Cypher's ternary
mixed-type comparison semantics, and the SKIP/LIMIT argument validation
(``_bounded_int``): negative, boolean and non-integer counts are rejected
with a runtime error before any row is produced.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.cypher import CypherEngine, CypherRuntimeError, execute
from repro.graph import GraphStore


@pytest.fixture()
def store():
    return GraphStore()


def value_of(store, expression, **params):
    return execute(store, f"RETURN {expression} AS v", **params).single()["v"]


class TestScalarNullPropagation:
    def test_string_functions_pass_null_through(self, store):
        assert value_of(store, "toUpper(null)") is None
        assert value_of(store, "toLower(null)") is None
        assert value_of(store, "substring(null, 1)") is None
        assert value_of(store, "left(null, 2)") is None
        assert value_of(store, "split(null, ',')") is None
        assert value_of(store, "trim(null)") is None

    def test_numeric_functions_pass_null_through(self, store):
        assert value_of(store, "abs(null)") is None
        assert value_of(store, "round(null)") is None
        assert value_of(store, "toInteger(null)") is None
        assert value_of(store, "toFloat(null)") is None

    def test_size_of_null(self, store):
        assert value_of(store, "size(null)") is None

    def test_coalesce_skips_nulls(self, store):
        assert value_of(store, "coalesce(null, null, 3)") == 3
        assert value_of(store, "coalesce(null, null)") is None


class TestAggregateNullHandling:
    def test_aggregates_skip_null_inputs(self, store):
        record = execute(
            store,
            "UNWIND [1, null, 2] AS x "
            "RETURN count(x) AS c, sum(x) AS s, min(x) AS mn, "
            "max(x) AS mx, collect(x) AS coll",
        ).single()
        assert record["c"] == 2  # count(expr) counts non-null values only
        assert record["s"] == 3
        assert record["mn"] == 1
        assert record["mx"] == 2
        assert record["coll"] == [1, 2]

    def test_all_null_aggregates_yield_null(self, store):
        record = execute(
            store, "UNWIND [null, null] AS x RETURN avg(x) AS a, max(x) AS m"
        ).single()
        assert record["a"] is None
        assert record["m"] is None

    def test_count_star_counts_null_rows(self, store):
        record = execute(
            store, "UNWIND [1, null, 2] AS x RETURN count(*) AS c"
        ).single()
        assert record["c"] == 3


class TestMixedTypeComparisons:
    def test_cross_type_ordering_is_unknown(self, store):
        # Comparing values of different types is ternary-unknown, not an error.
        assert value_of(store, "1 < 'a'") is None
        assert value_of(store, "true < 1") is None
        assert value_of(store, "'x' <= []") is None

    def test_cross_type_equality_is_false(self, store):
        assert value_of(store, "1 = '1'") is False
        assert value_of(store, "[1] = [1]") is True

    def test_null_comparisons_are_unknown(self, store):
        assert value_of(store, "null = null") is None
        assert value_of(store, "null <> null") is None
        assert value_of(store, "1 < null") is None

    def test_unknown_predicate_filters_rows(self, store):
        # WHERE keeps only true: unknown (null) comparisons drop the row.
        result = execute(
            store, "UNWIND [1, 'a', null] AS x WITH x WHERE x < 2 RETURN x"
        )
        assert result.values("x") == [1]


class TestBoundedIntValidation:
    @pytest.mark.parametrize("clause", ["LIMIT -1", "SKIP -2"])
    def test_negative_counts_rejected(self, store, clause):
        with pytest.raises(CypherRuntimeError, match="non-negative integer"):
            execute(store, f"UNWIND [1, 2, 3] AS x RETURN x {clause}")

    @pytest.mark.parametrize("clause", ["LIMIT 1.5", "SKIP 0.5"])
    def test_float_counts_rejected(self, store, clause):
        with pytest.raises(CypherRuntimeError, match="non-negative integer"):
            execute(store, f"UNWIND [1, 2, 3] AS x RETURN x {clause}")

    def test_boolean_counts_rejected(self, store):
        # Booleans are ints in Python; the validator must still reject them.
        with pytest.raises(CypherRuntimeError, match="non-negative integer"):
            execute(store, "UNWIND [1, 2, 3] AS x RETURN x LIMIT $n", n=True)

    def test_null_counts_rejected(self, store):
        with pytest.raises(CypherRuntimeError, match="non-negative integer"):
            execute(store, "UNWIND [1, 2, 3] AS x RETURN x SKIP $n", n=None)

    def test_parameterized_valid_bounds(self, store):
        result = execute(
            store, "UNWIND [1, 2, 3, 4] AS x RETURN x SKIP $s LIMIT $l", s=1, l=2
        )
        assert result.values("x") == [2, 3]

    def test_zero_limit_yields_no_rows(self, store):
        result = execute(store, "UNWIND [1, 2, 3] AS x RETURN x LIMIT 0")
        assert result.values("x") == []


class TestRegexMatch:
    def test_invalid_pattern_is_runtime_error(self, store):
        with pytest.raises(CypherRuntimeError, match="invalid regular expression"):
            value_of(store, "'abc' =~ '['")

    def test_distinct_patterns_are_not_retained(self, store):
        # Every row matches against its own pattern; compiled patterns may
        # only live in a bounded cache, not for the life of the process.
        engine = CypherEngine(store)
        query = (
            "UNWIND range(1, $n) AS i WITH i WHERE 'x' =~ ('p' + toString(i)) "
            "RETURN count(*) AS n"
        )
        engine.execute(query, {"n": 10})
        gc.collect()
        tracemalloc.start()
        try:
            assert engine.execute(query, {"n": 20_000}).single()["n"] == 0
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 2_000_000, f"{retained} bytes retained"
