"""ORDER BY: the multi-pass stable sort vs an independent composite-key oracle.

``_order`` sorts a row-index permutation with one stable ``list.sort`` per
ORDER BY key (least significant first, ``reverse=`` for DESC) and applies the
canonical tie-break only inside runs that tie on every key.  The reference
below is the original single-pass ordering: one composite key per entry, DESC
parts wrapped in a comparison-inverting class, bounded selection through
``heapq.nsmallest``.  Both must pick the very same entries in the same order.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from operator import itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import CypherEngine
from repro.cypher import ast_nodes as ast
from repro.cypher.errors import CypherRuntimeError, CypherTypeError
from repro.cypher.operators import _order, _order_plan
from repro.cypher.values import sort_key
from repro.graph import GraphStore
from repro.graph.model import Node, Relationship

NAN = float("nan")
INF = float("inf")


def _run(query: str) -> list:
    return CypherEngine(GraphStore()).execute(query).values("x")


def _same_numbers(left: list, right: list) -> bool:
    return len(left) == len(right) and all(
        (math.isnan(a) and math.isnan(b)) if a != a else a == b for a, b in zip(left, right)
    )


class TestNaNOrdering:
    def test_nan_does_not_break_the_order(self):
        values = _run('UNWIND [3, toFloat("NaN"), 1, 2] AS x RETURN x ORDER BY x')
        assert _same_numbers(values, [1, 2, 3, NAN])

    def test_nan_sorts_after_infinity_and_before_strings(self):
        query = (
            'UNWIND ["a", toFloat("NaN"), toFloat("Infinity"), -1, null, true] AS x '
            "RETURN x ORDER BY x"
        )
        values = _run(query)
        assert values[:2] == [-1, INF] and math.isnan(values[2])
        assert values[3:] == ["a", True, None]

    def test_descending_mirrors_ascending(self):
        values = _run(
            'UNWIND [toFloat("NaN"), 2, toFloat("Infinity"), 1] AS x RETURN x ORDER BY x DESC'
        )
        assert _same_numbers(values, [NAN, INF, 2, 1])

    def test_sort_key_places_nan_last_among_numbers(self):
        assert sort_key(INF) < sort_key(NAN) < sort_key("")
        assert sort_key(NAN) == sort_key(-NAN)
        assert sort_key([1, NAN]) > sort_key([1, INF])


# ---------------------------------------------------------------------------
# The composite-key reference
# ---------------------------------------------------------------------------

class _Descending:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return isinstance(other, _Descending) and other.key == self.key


def reference_order(produced: list, columns: list[int], descending: list[bool], top):
    """One composite key per entry: ORDER BY parts, then the canonical tie-break."""

    def composite(entry):
        values = entry[0]
        parts = []
        for column, desc in zip(columns, descending):
            key = sort_key(values[column])
            parts.append(_Descending(key) if desc else key)
        try:
            parts.append(tuple(sort_key(value) for value in values))
        except CypherTypeError:
            parts.append(())
        return tuple(parts)

    decorated = [(composite(entry), entry) for entry in produced]
    if top is not None and 0 <= top < len(decorated):
        selected = heapq.nsmallest(top, decorated, key=itemgetter(0))
    else:
        decorated.sort(key=itemgetter(0))
        selected = decorated
    return [entry for _, entry in selected]


def actual_order(produced: list, columns: list[int], descending: list[bool], top):
    """``_order`` with every ORDER BY item a plain output alias (no evaluator use)."""
    width = len(produced[0][0]) if produced else max(columns) + 1
    keys = [f"c{i}" for i in range(width)]
    order_by = [
        ast.OrderItem(ast.Variable(keys[column]), desc)
        for column, desc in zip(columns, descending)
    ]
    items = [ast.ReturnItem(ast.Variable(key), key) for key in keys]
    ctx = SimpleNamespace(evaluator=SimpleNamespace(evaluate=None, evaluate_aggregate=None))
    return _order(ctx, produced, order_by, _order_plan(order_by, items, keys, False), top)


def assert_same_permutation(rows: list[list], columns, descending, top) -> None:
    produced = [(list(values), []) for values in rows]
    expected = reference_order(produced, columns, descending, top)
    actual = actual_order(produced, columns, descending, top)
    assert [id(entry) for entry in actual] == [id(entry) for entry in expected], (
        rows, columns, descending, top,
    )


_store = GraphStore()
_a = _store.create_node(["AS"], {"asn": 1})
_b = _store.create_node(["AS"], {"asn": 2})
GRAPH_VALUES = [_a, _b, _store.create_relationship(_a.node_id, "PEERS_WITH", _b.node_id)]

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.text(alphabet="ab", max_size=2),
    st.sampled_from(GRAPH_VALUES),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from("ab"), inner, max_size=2),
    ),
    max_leaves=4,
)
# Few distinct values per column, so most rows tie on some or all keys.
_tie_heavy = st.sampled_from([None, 0, 1, 1.0, NAN, "a", True, [1], {"a": 1}])


@st.composite
def _cases(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    cell = draw(st.sampled_from([_values, _tie_heavy]))
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=14))
    n_keys = draw(st.integers(min_value=1, max_value=3))
    columns = draw(
        st.lists(st.integers(min_value=0, max_value=width - 1), min_size=n_keys, max_size=n_keys)
    )
    descending = draw(st.lists(st.booleans(), min_size=n_keys, max_size=n_keys))
    top = draw(
        st.one_of(
            st.none(),
            st.just(0),
            st.integers(min_value=0, max_value=max(len(rows) - 1, 0)),
            st.integers(min_value=len(rows), max_value=len(rows) + 3),
        )
    )
    return rows, columns, descending, top


class TestSortOracle:
    @settings(max_examples=600, deadline=None)
    @given(_cases())
    def test_same_permutation_as_composite_key_sort(self, case):
        assert_same_permutation(*case)

    def test_all_rows_tied_fall_back_to_tie_break_then_input_order(self):
        rows = [[1, "b"], [1, "a"], [1, "b"], [1, "a"]]
        for top in (None, 0, 1, 3, 4, 9):
            for desc in (False, True):
                assert_same_permutation(rows, [0], [desc], top)

    def test_unorderable_tie_break_keeps_input_order(self):
        class Opaque:
            pass

        rows = [[1, Opaque()], [0, Opaque()], [1, Opaque()], [1, 5]]
        for top in (None, 2):
            assert_same_permutation(rows, [0], [True], top)

    def test_node_and_relationship_keys(self):
        rel = GRAPH_VALUES[2]
        rows = [[_b], [rel], [_a], [Node(_a.node_id, ["AS"])], [Relationship(rel.rel_id, "X", 0, 1)]]
        for desc in (False, True):
            assert_same_permutation(rows, [0], [desc], None)


# ---------------------------------------------------------------------------
# Key kinds: native float keys, native string keys, sort_key tuples
# ---------------------------------------------------------------------------

_FINITE = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from([0.0, -0.0, 1, 1.0]),
)
#: each column kind ``sort_keys`` tells apart, drawn tie-heavy
_KINDS = {
    "numbers": _FINITE,
    "numbers_infinite": st.one_of(_FINITE, st.sampled_from([INF, -INF])),
    "numbers_nan": st.one_of(_FINITE, st.sampled_from([NAN, INF, -INF])),
    "numbers_bool": st.one_of(_FINITE, st.booleans()),
    "strings": st.text(alphabet="ab", max_size=2),
    "strings_null": st.one_of(st.text(alphabet="ab", max_size=2), st.none()),
}


@st.composite
def _kind_cases(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=3))
    rows = draw(st.lists(st.tuples(*(_KINDS[kind] for kind in kinds)).map(list), max_size=14))
    columns = draw(st.lists(st.integers(min_value=0, max_value=len(kinds) - 1),
                            min_size=1, max_size=2))
    descending = draw(st.lists(st.booleans(), min_size=len(columns), max_size=len(columns)))
    top = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=len(rows) + 1)))
    return rows, columns, descending, top


class TestKeyKinds:
    @settings(max_examples=600, deadline=None)
    @given(_kind_cases())
    def test_same_permutation_for_every_key_kind(self, case):
        assert_same_permutation(*case)

    @pytest.mark.parametrize("rows, columns", [
        ([[1], [10 ** 400], [2]], [0]),  # an ORDER BY column
        ([[1, 10 ** 400], [1, 2]], [0]),  # the tie-break over the other column
        ([["a", 5], [10 ** 400, 5]], [1]),  # a mixed column in the tie-break
    ])
    @pytest.mark.parametrize("desc", [False, True])
    def test_int_past_float_range_raises_as_sort_key(self, rows, columns, desc):
        with pytest.raises(OverflowError) as expected:
            sort_key(10 ** 400)
        produced = [(list(values), []) for values in rows]
        with pytest.raises(OverflowError) as reference:
            reference_order(produced, columns, [desc], None)
        with pytest.raises(OverflowError) as actual:
            actual_order(produced, columns, [desc], None)
        assert str(actual.value) == str(reference.value) == str(expected.value)

    def test_key_error_before_an_evaluation_error_raises_first(self):
        engine = CypherEngine(GraphStore())
        huge = str(10 ** 400)
        with pytest.raises(OverflowError):
            engine.execute(f"UNWIND [{huge}, 1] AS x RETURN x ORDER BY x, 1 / 0")
        with pytest.raises(CypherRuntimeError):
            engine.execute(f"UNWIND [1, {huge}] AS x RETURN x ORDER BY x, 1 / 0")


# ---------------------------------------------------------------------------
# Scaling guard
# ---------------------------------------------------------------------------

def _time(engine: CypherEngine, query: str, n: int) -> float:
    """One execution; the unused parameter bypasses result reuse.

    The collector is emptied first and paused while the query runs: a full
    collection triggered by the larger size's allocations would otherwise
    be charged to it alone.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = engine.execute(query, {"_execute": 1})
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    assert len(result) == n
    return elapsed


@pytest.mark.parametrize(
    "key", ["x", "x % 97"], ids=["distinct_keys", "tie_heavy_keys"]
)
def test_order_by_desc_scales_near_linearly(key):
    """4x the rows must cost well under the 16x a quadratic tie scan would.

    Best of five executions per size, alternating sizes so host load hits
    both.
    """
    engine = CypherEngine(GraphStore())
    query = "UNWIND range(1, {n}) AS x RETURN x, " + key + " AS k ORDER BY k DESC"
    hits = engine.cache_stats()["result_hits"]
    small = large = math.inf
    for _ in range(5):
        small = min(small, _time(engine, query.format(n=5000), 5000))
        large = min(large, _time(engine, query.format(n=20000), 20000))
    assert engine.cache_stats()["result_hits"] == hits
    assert large / small < 8, (small, large)
