"""DISTINCT aggregates: hash dedup on ``equality_key`` vs the pairwise oracle.

``call_aggregate(..., distinct=True)`` keeps the first value of each Cypher
equality class.  The reference below is the original pairwise
``cypher_equals`` loop (O(n^2)); every aggregate must see exactly the values
it would have kept, in the same order.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import CypherEngine
from repro.cypher.functions import AGGREGATE_FUNCTIONS, call_aggregate
from repro.cypher.values import cypher_equals, equality_key
from repro.graph import GraphStore
from repro.graph.model import Node, Path, Relationship

AGGREGATES = ["count", "sum", "avg", "min", "max", "collect", "stdev", "stdevp"]


def reference_distinct(values: list) -> list:
    """The original pairwise dedup: keep a value unless it equals a kept one."""
    seen: list = []
    unique: list = []
    for value in values:
        if any(cypher_equals(value, other) is True for other in seen):
            continue
        seen.append(value)
        unique.append(value)
    return unique


def _graph_values() -> list:
    store = GraphStore()
    a = store.create_node(["AS"], {"asn": 1})
    b = store.create_node(["AS"], {"asn": 2})
    c = store.create_node(["Prefix"], {"prefix": "10.0.0.0/8"})
    ab = store.create_relationship(a.node_id, "PEERS_WITH", b.node_id)
    bc = store.create_relationship(b.node_id, "ORIGINATE", c.node_id)
    return [
        a,
        b,
        Node(a.node_id, a.labels, a.properties),  # same identity, new object
        ab,
        bc,
        Relationship(ab.rel_id, ab.rel_type, ab.start_id, ab.end_id),
        Path([a], []),
        Path([a, b], [ab]),
        Path([a, b], [ab]),
        Path([a, b, c], [ab, bc]),
    ]


GRAPH_VALUES = _graph_values()

SCALARS = [
    None,
    float("nan"),
    True,
    False,
    0,
    1,
    -1,
    0.0,
    -0.0,
    1.0,
    2.5,
    2**53,
    2**53 + 1,
    2**53 - 1,
    float(2**53),
    float("inf"),
    "",
    "a",
    "1",
    "true",
]

NESTED = [
    [],
    [1],
    [1.0],
    [True],
    [None],
    [1, None],
    [float("nan")],
    [[1, 2], "a"],
    [[1.0, 2.0], "a"],
    ["bool", 1],
    {},
    {"a": 1},
    {"a": 1.0},
    {"a": True},
    {"b": 1},
    {"a": None},
    {"a": [1, None]},
    {"a": {"b": [1]}},
    {"a": {"b": [1.0]}},
]

POOL = SCALARS + NESTED + GRAPH_VALUES


def _same(left, right) -> bool:
    """Structural identity: same types, NaN matches NaN, containers recurse."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float) and math.isnan(left):
        return math.isnan(right)
    if isinstance(left, list):
        return len(left) == len(right) and all(map(_same, left, right))
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(_same(left[k], right[k]) for k in left)
    return left == right


def _outcome(fn, values):
    try:
        return "ok", fn(values)
    except Exception as exc:  # compared against the reference's error class
        return "error", type(exc)


def assert_matches_reference(values: list) -> None:
    expected_unique = reference_distinct(values)
    for name in AGGREGATES:
        expected = _outcome(AGGREGATE_FUNCTIONS[name], expected_unique)
        actual = _outcome(lambda vs, name=name: call_aggregate(name, vs, distinct=True), values)
        assert actual[0] == expected[0], (name, values, actual, expected)
        if expected[0] == "error":
            assert actual[1] is expected[1], (name, values)
        else:
            assert _same(actual[1], expected[1]), (name, values, actual, expected)
        if name == "collect" and expected[0] == "ok":
            # The very same objects, in the same order (first occurrence wins).
            assert [id(v) for v in actual[1]] == [id(v) for v in expected[1]]


class TestEqualityKey:
    @pytest.mark.parametrize("left", POOL, ids=repr)
    def test_key_equality_is_cypher_equality(self, left):
        for right in POOL:
            key_left, key_right = equality_key(left), equality_key(right)
            keys_equal = key_left is not None and key_left == key_right
            assert keys_equal == (cypher_equals(left, right) is True), (left, right)
            if keys_equal:
                assert hash(key_left) == hash(key_right)

    @pytest.mark.parametrize(
        "value", [None, float("nan"), [None], [1, None], [float("nan")], {"a": None}, {"a": [None]}]
    )
    def test_values_equal_to_nothing_have_no_key(self, value):
        assert equality_key(value) is None

    def test_numbers_key_on_float(self):
        assert equality_key(1) == equality_key(1.0)
        assert equality_key(2**53) == equality_key(2**53 + 1)
        assert equality_key(True) != equality_key(1)
        assert equality_key(False) != equality_key(0)


class TestDistinctAggregateOracle:
    def test_all_ordered_pairs(self):
        for pair in itertools.product(POOL, repeat=2):
            assert_matches_reference(list(pair))

    def test_seeded_random_lists(self):
        rng = random.Random(20251017)
        for _ in range(2000):
            values = [rng.choice(POOL) for _ in range(rng.randint(0, 12))]
            assert_matches_reference(values)

    def test_numeric_lists(self):
        numbers = [n for n in SCALARS if isinstance(n, (int, float)) or n is None]
        rng = random.Random(7)
        for _ in range(500):
            assert_matches_reference([rng.choice(numbers) for _ in range(rng.randint(0, 10))])

    def test_errors_match_reference(self):
        for values in (["a"], ["a", "a"], [1, "a", 1.0], [True], [[1]]):
            assert_matches_reference(values)


_NAN_QUERIES = [
    # (query, rows): NaN is equivalent to NaN for DISTINCT, grouping and
    # UNION, whether or not the NaN values are the same Python object.
    ("UNWIND [toFloat('NaN'), toFloat('NaN')] AS x RETURN DISTINCT x", 1),
    ("WITH toFloat('NaN') AS n UNWIND [n, n] AS x RETURN DISTINCT x", 1),
    ("RETURN toFloat('NaN') AS x UNION RETURN toFloat('NaN') AS x", 1),
    ("RETURN toFloat('NaN') AS x UNION ALL RETURN toFloat('NaN') AS x", 2),
    ("UNWIND [[toFloat('NaN'), 1], [toFloat('NaN'), 1], [1, 1]] AS x RETURN DISTINCT x", 2),
    ("UNWIND [toFloat('NaN'), toFloat('NaN'), 1.5] AS x RETURN x, count(*) AS c", 2),
    ("UNWIND [{a: toFloat('NaN')}, {a: toFloat('NaN')}] AS x RETURN DISTINCT x", 1),
]


class TestNaNEquivalence:
    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "unplanned"])
    @pytest.mark.parametrize("query, rows", _NAN_QUERIES)
    def test_nan_groups_with_nan(self, query, rows, planner):
        result = CypherEngine(GraphStore(), planner=planner).run(query)
        assert len(result) == rows

    def test_nan_group_counts_every_member(self):
        result = CypherEngine(GraphStore()).run(
            "UNWIND [toFloat('NaN'), 1.5, toFloat('NaN')] AS x RETURN x, count(*) AS c"
        )
        counts = [row["c"] for row in result.to_dicts()]
        assert counts == [2, 1]
        assert math.isnan(result.to_dicts()[0]["x"])

    def test_count_distinct_keeps_every_nan(self):
        # count(DISTINCT) follows equality, where NaN equals nothing.
        result = CypherEngine(GraphStore()).run(
            "UNWIND [toFloat('NaN'), toFloat('NaN')] AS x RETURN count(DISTINCT x) AS c"
        )
        assert result.single()["c"] == 2


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, float(2**53)]),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.text(alphabet="ab1", max_size=2),
    st.sampled_from(GRAPH_VALUES),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from("ab"), inner, max_size=2),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_values, max_size=10))
def test_generated_lists_match_reference(values):
    assert_matches_reference(values)


def _best_time(engine: CypherEngine, query: str, expected: int) -> float:
    """Best of three executions; the unused parameter bypasses result reuse.

    The collector is emptied before each execution and paused while it
    runs, so a full collection is not charged to whichever size triggers it.
    """
    hits = engine.cache_stats()["result_hits"]
    best = math.inf
    for _ in range(3):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            result = engine.execute(query, {"_execute": 1})
            best = min(best, time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        assert result.single()["c"] == expected
    assert engine.cache_stats()["result_hits"] == hits
    return best


def test_count_distinct_scales_linearly():
    """4x the input must cost well under the 16x a quadratic dedup would."""
    engine = CypherEngine(GraphStore())
    query = "UNWIND range(1, {n}) AS x RETURN count(DISTINCT x) AS c"
    small = _best_time(engine, query.format(n=1000), 1000)
    large = _best_time(engine, query.format(n=4000), 4000)
    assert large / small < 8, (small, large)
