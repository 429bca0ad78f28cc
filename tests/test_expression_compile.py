"""Compiled-vs-interpreted oracle for the expression-compilation layer.

The compiled path (``compile_expressions=True``, the default) must be
bit-identical to the tree-walking interpreter on every query: same keys,
same rows in the same order, and the same exception type + message when a
query fails.  The oracle runs every probe through four engines — compiled
and interpreted, each with the planner on and off — and requires all four
outcomes to agree.
"""

from __future__ import annotations

import pytest

from repro.core import ChatIYP, ChatIYPConfig
from repro.cypher import CypherEngine, ExpressionCompiler, expression_variables
from repro.cypher.errors import CypherError
from repro.cypher.functions import SCALAR_FUNCTIONS
from repro.cypher.parser import parse_expression
from repro.eval.cyphereval import build_cyphereval

# ---------------------------------------------------------------------------
# Oracle harness
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_engines(small_store):
    """(label, engine) pairs covering compiled × planner combinations."""
    return [
        ("compiled", CypherEngine(small_store)),
        ("interpreted", CypherEngine(small_store, compile_expressions=False)),
        ("compiled/no-planner", CypherEngine(small_store, planner=False)),
        (
            "interpreted/no-planner",
            CypherEngine(small_store, planner=False, compile_expressions=False),
        ),
    ]


def _outcome(engine, query, params):
    try:
        result = engine.execute(query, params)
    except CypherError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", tuple(result.keys), result.to_dicts())


def assert_oracle(engines, query, params=None):
    params = params or {}
    reference_label, reference_engine = engines[0]
    reference = _outcome(reference_engine, query, params)
    for label, engine in engines[1:]:
        outcome = _outcome(engine, query, params)
        assert outcome == reference, (
            f"{label} diverged from {reference_label} on {query!r}:\n"
            f"  {reference_label}: {reference}\n  {label}: {outcome}"
        )
    return reference


# ---------------------------------------------------------------------------
# Gold query set
# ---------------------------------------------------------------------------


def test_gold_queries_bit_identical(small_dataset, oracle_engines):
    """Every CypherEval gold query agrees across all four engines."""
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
    # Compiled-filter bench shape: top-level OR defeats index pushdown.
    "MATCH (a:AS) WHERE a.asn % 7 = 3 OR (a.asn % 5 = 1 AND a.name CONTAINS 'A') "
    "RETURN a.asn ORDER BY a.asn",
    # Fully-anchored fast-path shapes (compiled engine takes the fast path;
    # the interpreter builds the operator tree — rows must still agree).
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
    # Zero-row queries must not raise lazily-compiled runtime errors.
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


@pytest.mark.parametrize("compile_expressions", [True, False])
def test_sort_key_evaluated_once_per_row(small_store, monkeypatch, compile_expressions):
    """ORDER BY on a projected expression reuses the projected value."""
    engine = CypherEngine(small_store, compile_expressions=compile_expressions)
    rows = len(engine.run("MATCH (a:AS) RETURN a.asn").records)
    probe = _CountingScalar(SCALAR_FUNCTIONS["toupper"])
    monkeypatch.setitem(SCALAR_FUNCTIONS, "toupper", probe)
    engine.run("MATCH (a:AS) RETURN toUpper(a.name) AS k ORDER BY toUpper(a.name)")
    assert probe.calls == rows

    probe.calls = 0
    engine.run("MATCH (a:AS) RETURN toUpper(a.name) AS k ORDER BY k")
    assert probe.calls == rows


@pytest.mark.parametrize("compile_expressions", [True, False])
def test_grouping_key_evaluated_once_per_row(
    small_store, monkeypatch, compile_expressions
):
    """ORDER BY on a grouping key reuses the grouped value (no re-eval)."""
    engine = CypherEngine(small_store, compile_expressions=compile_expressions)
    rows = len(engine.run("MATCH (a:AS) RETURN a.asn").records)
    probe = _CountingScalar(SCALAR_FUNCTIONS["toupper"])
    monkeypatch.setitem(SCALAR_FUNCTIONS, "toupper", probe)
    engine.run(
        "MATCH (a:AS) RETURN toUpper(a.country) AS k, count(*) AS n "
        "ORDER BY toUpper(a.country)"
    )
    assert probe.calls == rows


# ---------------------------------------------------------------------------
# Compilation state: EXPLAIN / PROFILE markers and metrics
# ---------------------------------------------------------------------------

FILTER_QUERY = "MATCH (a:AS) WHERE a.asn % 7 = 3 RETURN a.asn + 1 AS x"


def test_explain_markers(small_store):
    compiled = CypherEngine(small_store)
    interpreted = CypherEngine(small_store, compile_expressions=False)
    plan = compiled.explain(FILTER_QUERY)
    assert "[compiled]" in plan
    assert "[fused]" in plan
    off_plan = interpreted.explain(FILTER_QUERY)
    assert "[compiled]" not in off_plan
    assert "[fused]" not in off_plan


def _profile_markers(node, found):
    if node.get("marker"):
        found.append((node["operator"], node["marker"]))
    for child in node.get("children", []):
        _profile_markers(child, found)


def test_profile_markers(small_store):
    compiled = CypherEngine(small_store)
    result = compiled.execute(FILTER_QUERY, profile=True)
    found = []
    _profile_markers(result.profile, found)
    markers = {marker for _, marker in found}
    assert "fused" in markers or "compiled" in markers

    interpreted = CypherEngine(small_store, compile_expressions=False)
    result = interpreted.execute(FILTER_QUERY, profile=True)
    found = []
    _profile_markers(result.profile, found)
    assert not found


def test_compile_metrics_counters(small_store):
    engine = CypherEngine(small_store)
    baseline = engine.compile_metrics()
    assert set(baseline) == {
        "compile.compiled",
        "compile.cache_hits",
        "compile.fallbacks",
        "compile.fastpath_hits",
        "compile.fused_operators",
    }
    # FILTER_QUERY is fast-path eligible (anchored MATCH + plain RETURN):
    # it executes without building an operator tree at all.
    engine.run(FILTER_QUERY)
    after = engine.compile_metrics()
    assert after["compile.compiled"] > baseline["compile.compiled"]
    assert after["compile.fastpath_hits"] == 1
    engine.run("MATCH (a:AS {asn: 2497}) RETURN a.name")
    assert engine.compile_metrics()["compile.fastpath_hits"] == 2

    # ORDER BY defeats the fast path, so this run lowers to operators and
    # fuses the compiled Filter into the projection.
    engine.run(FILTER_QUERY + " ORDER BY x")
    assert engine.compile_metrics()["compile.fused_operators"] > 0

    off = CypherEngine(small_store, compile_expressions=False)
    off.run(FILTER_QUERY)
    assert all(value == 0 for value in off.compile_metrics().values())


def test_compiler_cache_hits(small_store):
    engine = CypherEngine(small_store)
    engine.run("MATCH (a:AS) WHERE a.asn > 1 RETURN a.asn LIMIT 1")
    hits = engine.compile_metrics()["compile.cache_hits"]
    # Same query → cached plan carries the already-compiled closures, so no
    # recompilation happens; a textually fresh equivalent recompiles.
    engine.run("MATCH (a:AS) WHERE a.asn > 1  RETURN a.asn LIMIT 1")
    assert engine.compile_metrics()["compile.cache_hits"] >= hits


# ---------------------------------------------------------------------------
# Compiler unit surface
# ---------------------------------------------------------------------------


def test_expression_variables():
    expr = parse_expression("a.asn + b.asn * size(c)")
    assert expression_variables(expr) == frozenset({"a", "b", "c"})
    assert expression_variables(parse_expression("1 + 2")) == frozenset()


def test_compiler_identity_cache(small_store):
    compiler = ExpressionCompiler()
    expr = parse_expression("1 + 2")
    first = compiler.compile(expr)
    second = compiler.compile(expr)
    assert first is second
    assert compiler.metrics()["compile.cache_hits"] >= 1


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def test_config_escape_hatch(small_dataset):
    """The interpreter is an engine switch; ChatIYP always runs compiled."""
    app = ChatIYP(dataset=small_dataset, config=ChatIYPConfig(dataset_size="small"))
    interpreted = CypherEngine(small_dataset.store, compile_expressions=False)
    assert app.engine.compiler is not None
    assert interpreted.compiler is None
    cypher = app.ask("Which prefixes does AS2497 originate?").cypher
    assert cypher is not None
    assert app.run_cypher(cypher).to_dicts() == interpreted.run(cypher).to_dicts()
    snapshot = app.serving_snapshot()
    assert snapshot["compile"]["compile.compiled"] > 0
    counters = app.metrics.snapshot()["counters"]
    assert counters.get("compile.compiled", 0) > 0
