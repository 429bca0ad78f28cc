"""Planner-on vs planner-off oracle for expression evaluation.

Every query runs through one interpreted operator tree; the planner only
chooses access paths, join order and pushdown.  The planned engine — with
and without a serving deadline — must be bit-identical to the unplanned
engine (``planner=False``) on every probe: same keys, same rows in the
same order, and the same exception type + message when a query fails.
The probes include the single-part ``MATCH ... RETURN`` shapes served
requests send most, plus null/ternary, arithmetic and error edges.
"""

from __future__ import annotations

import pytest

from repro.core import ChatIYP, ChatIYPConfig
from repro.cypher import CypherEngine, expression_variables
from repro.cypher.errors import CypherError
from repro.cypher.functions import SCALAR_FUNCTIONS
from repro.cypher.parser import parse_expression
from repro.eval.cyphereval import build_cyphereval
from repro.serving import Deadline

# ---------------------------------------------------------------------------
# Oracle harness
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_engines(small_store):
    """(label, run) pairs: planned, planned under a deadline, unplanned."""
    planned = CypherEngine(small_store)
    return [
        ("planned", planned.execute),
        (
            "planned/deadline",
            lambda query, params: planned.execute(
                query, params, deadline=Deadline.start(60000)
            ),
        ),
        ("no-planner", CypherEngine(small_store, planner=False).execute),
    ]


def _outcome(run, query, params):
    try:
        result = run(query, params)
    except CypherError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", tuple(result.keys), result.to_dicts())


def assert_oracle(engines, query, params=None):
    params = params or {}
    reference_label, reference_run = engines[0]
    reference = _outcome(reference_run, query, params)
    for label, run in engines[1:]:
        outcome = _outcome(run, query, params)
        assert outcome == reference, (
            f"{label} diverged from {reference_label} on {query!r}:\n"
            f"  {reference_label}: {reference}\n  {label}: {outcome}"
        )
    return reference


# ---------------------------------------------------------------------------
# Gold query set
# ---------------------------------------------------------------------------


def test_gold_queries_bit_identical(small_dataset, oracle_engines):
    """Every CypherEval gold query agrees across all three engines."""
    questions = build_cyphereval(small_dataset, seed=7, per_template=3)
    assert questions, "gold set must not be empty"
    for question in questions:
        assert_oracle(oracle_engines, question.gold_cypher)


# ---------------------------------------------------------------------------
# Adversarial expressions
# ---------------------------------------------------------------------------

ADVERSARIAL_QUERIES = [
    # Null propagation through arithmetic, logic and membership.
    "RETURN null + 1 AS x",
    "RETURN null = null AS x",
    "RETURN null <> 1 AS x",
    "RETURN NOT null AS x",
    "RETURN null AND false AS x, null AND true AS y",
    "RETURN null OR true AS x, null OR false AS y",
    "RETURN null XOR true AS x",
    "RETURN null IN [1, 2] AS x, 1 IN [null, 1] AS y, 3 IN [null, 1] AS z",
    "RETURN null IS NULL AS x, 1 IS NOT NULL AS y",
    "RETURN coalesce(null, null, 'fallback') AS x",
    "RETURN null STARTS WITH 'a' AS x, 'abc' CONTAINS null AS y",
    # Mixed-type and ternary comparisons.
    "RETURN 1 < 'a' AS x",
    "RETURN true > 1 AS x",
    "RETURN 1 = 1.0 AS x, 1 < 1.5 AS y",
    "RETURN [1, 2] = [1, 2] AS x, [1, 2] = [1, null] AS y",
    "RETURN {a: 1} = {a: 1} AS x, {a: 1} = {a: 2} AS y",
    # Arithmetic edges.
    "RETURN 5 % 3 AS x, -5 % 3 AS y, 5.5 % 2 AS z",
    "RETURN 2 ^ 10 AS x, 7 / 2 AS y, 7.0 / 2 AS z",
    "RETURN -(-3) AS x, +3 AS y",
    "RETURN 'a' + 'b' AS x, 'n' + 1 AS y, 2 + 's' AS z",
    # Nested function calls.
    "RETURN toUpper(substring('hello world', 0, 5)) AS x",
    "RETURN size(split('a,b,c', ',')) AS x",
    "RETURN coalesce(null, toLower('ABC')) AS x",
    "RETURN abs(toInteger('-42')) AS x",
    "RETURN reverse(toString(123)) AS x",
    # CASE in both shapes, with null subjects.
    "RETURN CASE WHEN null THEN 1 ELSE 2 END AS x",
    "UNWIND [1, 2, 3] AS v RETURN CASE v WHEN 1 THEN 'a' WHEN 2 THEN 'b' END AS x",
    "UNWIND [null, 1] AS v RETURN CASE v WHEN null THEN 'n' ELSE 'o' END AS x",
    # Comprehensions, quantifiers, reduce.
    "RETURN [x IN range(1, 6) WHERE x % 2 = 0 | x * 10] AS l",
    "RETURN all(x IN [1, 2, 3] WHERE x > 0) AS a, any(x IN [] WHERE x > 0) AS b",
    "RETURN none(x IN [1, 2] WHERE x > 5) AS a, single(x IN [1, 2] WHERE x = 2) AS b",
    "RETURN reduce(s = 0, x IN [1, 2, 3] | s + x) AS total",
    # Subscripts and slices.
    "RETURN [10, 20, 30][1] AS x, [10, 20, 30][-1] AS y",
    "RETURN [1, 2, 3, 4][1..3] AS x, 'abcdef'[2..4] AS y",
    "RETURN {a: {b: 7}}['a']['b'] AS x",
    # DESC / SKIP ties over duplicated sort keys.
    "UNWIND [3, 1, 2, 1, 3] AS v RETURN v ORDER BY v DESC SKIP 1",
    "UNWIND [3, 1, 2, 1, 3] AS v RETURN v AS a, v % 2 AS b ORDER BY b, a DESC SKIP 2 LIMIT 2",
    # String predicates over graph data.
    "MATCH (a:AS) WHERE a.name STARTS WITH 'A' RETURN a.asn ORDER BY a.asn",
    "MATCH (a:AS) WHERE a.name ENDS WITH 'm' RETURN a.asn ORDER BY a.asn",
    "MATCH (a:AS) WHERE a.name CONTAINS 'net' RETURN a.asn ORDER BY a.asn",
    # Filter-scan bench shape: top-level OR defeats index pushdown.
    "MATCH (a:AS) WHERE a.asn % 7 = 3 OR (a.asn % 5 = 1 AND a.name CONTAINS 'A') "
    "RETURN a.asn ORDER BY a.asn",
    # Fully-anchored single-part shapes (anchored lookups, inline property
    # maps, SKIP/LIMIT, LIMIT 0, one hop).
    "MATCH (a:AS {asn: 2497}) RETURN a.name",
    "MATCH (a:AS {asn: 2497}) RETURN a.name AS n, a.asn * 2 AS d",
    "MATCH (a:AS {country: 'JP'}) RETURN a.asn SKIP 1 LIMIT 3",
    "MATCH (a:AS {country: 'JP'}) WHERE a.asn > 100 RETURN a.asn LIMIT 5",
    "MATCH (a:AS {asn: 2497})-[:ORIGINATE]->(p:Prefix) RETURN p.prefix",
    "MATCH (a:AS {asn: 2497}) RETURN a.name LIMIT 0",
    # Aggregates, DISTINCT and UNION dedup.
    "MATCH (a:AS) RETURN a.country AS c, count(*) AS n, sum(a.asn) AS s "
    "ORDER BY n DESC, c SKIP 1 LIMIT 4",
    "MATCH (a:AS) RETURN DISTINCT a.country AS c ORDER BY c",
    "MATCH (a:AS) RETURN count(DISTINCT a.country) AS n",
    "MATCH (a:AS) RETURN min(a.asn) AS lo, max(a.asn) AS hi, avg(a.asn) AS mean",
    "MATCH (a:AS) RETURN a.country AS c UNION MATCH (a:AS) RETURN a.country AS c",
    # Zero-row queries must not raise: projections never evaluate.
    "MATCH (a:AS {asn: -999999}) RETURN a.asn / 0 AS x",
    "MATCH (a:AS {asn: -999999}) RETURN count(a.asn) + 0 AS x",
    # Errors must match exactly: type and message.
    "RETURN 1 / 0 AS x",
    "RETURN 1 % 0 AS x",
    "RETURN noSuchFunction(1) AS x",
    "RETURN count(*) + sum(1) + bogusAgg(2) AS x",
]


@pytest.mark.parametrize("query", ADVERSARIAL_QUERIES)
def test_adversarial_bit_identical(oracle_engines, query):
    assert_oracle(oracle_engines, query)


def test_parameterised_queries_bit_identical(oracle_engines):
    assert_oracle(
        oracle_engines,
        "MATCH (a:AS {asn: $asn}) RETURN a.name",
        {"asn": 2497},
    )
    assert_oracle(
        oracle_engines,
        "UNWIND $items AS v RETURN v * $factor AS x ORDER BY x DESC",
        {"items": [3, 1, 2], "factor": 10},
    )
    assert_oracle(oracle_engines, "RETURN $missing AS x", {})


# ---------------------------------------------------------------------------
# Satellite: one evaluation per row per sort/grouping key
# ---------------------------------------------------------------------------


class _CountingScalar:
    """Wraps a scalar function and counts invocations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


@pytest.mark.parametrize("planner", [True, False])
def test_sort_key_evaluated_once_per_row(small_store, monkeypatch, planner):
    """ORDER BY on a projected expression reuses the projected value."""
    engine = CypherEngine(small_store, planner=planner)
    rows = len(engine.run("MATCH (a:AS) RETURN a.asn").records)
    probe = _CountingScalar(SCALAR_FUNCTIONS["toupper"])
    monkeypatch.setitem(SCALAR_FUNCTIONS, "toupper", probe)
    engine.run("MATCH (a:AS) RETURN toUpper(a.name) AS k ORDER BY toUpper(a.name)")
    assert probe.calls == rows

    probe.calls = 0
    engine.run("MATCH (a:AS) RETURN toUpper(a.name) AS k ORDER BY k")
    assert probe.calls == rows


@pytest.mark.parametrize("planner", [True, False])
def test_grouping_key_evaluated_once_per_row(small_store, monkeypatch, planner):
    """ORDER BY on a grouping key reuses the grouped value (no re-eval)."""
    engine = CypherEngine(small_store, planner=planner)
    rows = len(engine.run("MATCH (a:AS) RETURN a.asn").records)
    probe = _CountingScalar(SCALAR_FUNCTIONS["toupper"])
    monkeypatch.setitem(SCALAR_FUNCTIONS, "toupper", probe)
    engine.run(
        "MATCH (a:AS) RETURN toUpper(a.country) AS k, count(*) AS n "
        "ORDER BY toUpper(a.country)"
    )
    assert probe.calls == rows


# ---------------------------------------------------------------------------
# EXPLAIN / PROFILE: WHERE and projection are separate operators
# ---------------------------------------------------------------------------

FILTER_QUERY = "MATCH (a:AS) WHERE a.asn % 7 = 3 RETURN a.asn + 1 AS x"


def test_explain_markers(small_store):
    plan = CypherEngine(small_store).explain(FILTER_QUERY)
    assert "    +- Filter(WHERE)" in plan.splitlines()
    assert "[compiled]" not in plan
    assert "[fused]" not in plan


def _operators(node, found):
    found.append(node["operator"])
    assert "marker" not in node
    for child in node.get("children", []):
        _operators(child, found)


def test_profile_markers(small_store):
    """The profiled tree is the served tree: Filter feeds Project."""
    result = CypherEngine(small_store).execute(FILTER_QUERY, profile=True)
    found = []
    _operators(result.profile, found)
    assert found.index("Project") < found.index("Filter")
    assert "FilterProject" not in found


def test_compile_metrics_counters(small_store):
    """The removed compiler's counters survive only as an empty stub."""
    engine = CypherEngine(small_store)
    assert engine.compile_metrics() == {}
    engine.run(FILTER_QUERY)
    engine.run("MATCH (a:AS {asn: 2497}) RETURN a.name")
    assert engine.compile_metrics() == {}


# ---------------------------------------------------------------------------
# Variable discovery
# ---------------------------------------------------------------------------


def test_expression_variables():
    expr = parse_expression("a.asn + b.asn * size(c)")
    assert expression_variables(expr) == frozenset({"a", "b", "c"})
    assert expression_variables(parse_expression("1 + 2")) == frozenset()


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def test_config_escape_hatch(small_dataset):
    """ChatIYP's engine matches the unplanned engine; ``compile_expressions``
    is a stub that accepts only False."""
    app = ChatIYP(dataset=small_dataset, config=ChatIYPConfig(dataset_size="small"))
    unplanned = CypherEngine(small_dataset.store, planner=False, compile_expressions=False)
    with pytest.raises(ValueError):
        CypherEngine(small_dataset.store, compile_expressions=True)
    cypher = app.ask("Which prefixes does AS2497 originate?").cypher
    assert cypher is not None
    assert app.run_cypher(cypher).to_dicts() == unplanned.run(cypher).to_dicts()
    assert app.serving_snapshot()["compile"] == {}
    counters = app.metrics.snapshot()["counters"]
    assert not any(key.startswith("compile.") for key in counters)
