"""Differential oracle for the engine's shape-keyed query cache.

One long-lived engine runs many texts in order, so most first-seen texts
reuse a shape (a tree with the literals lifted into slots, and its plans)
made from an earlier text with other values.  Each text must come out as
its own ``parse()`` tree does on a fresh engine: the same columns, the same
rows in the same order, the same error class and message (a syntax error's
message carries its position) and the same charged rows.

Texts: the parse-golden corpus and hand list, the seed-7
``cypher_replay_large`` texts in replay order, and hand pairs that differ
only in a literal the parser may read as syntax or whose equality pattern
decides how the tree compares, or that spell one token stream two ways.
"""

from __future__ import annotations

import itertools
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import CypherEngine, executor, lowering, parse, parser, profile_tree
from repro.cypher.errors import CypherError, CypherRuntimeError, CypherSyntaxError
from repro.cypher.executor import _QueryEntry, _Shape
from repro.cypher.lexer import LITERAL_SPLIT, tokenize
from repro.graph import GraphStore
from repro.cypher.result import render_value
from repro.iyp import IYPConfig, generate_iyp
from repro.serving import Deadline
from tests.test_parse_golden import HAND, front_end_corpus

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: Every text runs with these, so ``IN $p`` and ``$1`` have values.
PARAMS = {"p": [2497], "1": 15169}
#: Intermediate rows per run: dropped filters and flipped directions make
#: some texts explode, and an exhausted budget is an outcome like any other.
BUDGET = 20_000


def _deadline() -> Deadline:
    """A deadline whose clock advances 1 ms per reading, so it expires after
    the same 200 readings (about 51,000 rows or walk steps) on every run:
    it bounds shortest-path searches, which charge no rows."""
    return Deadline(200.0, clock=itertools.count(0.0, 0.001).__next__)

#: Pairs of texts of one token stream that differ in one literal, and
#: texts of one token stream spelled two ways.
PAIRS = [
    # hop bounds are syntax
    "MATCH (a:AS {asn: 2497})-[:PEERS_WITH*1..3]-(b:AS) RETURN count(b) AS n",
    "MATCH (a:AS {asn: 2497})-[:PEERS_WITH*1..4]-(b:AS) RETURN count(b) AS n",
    "MATCH (a:AS {asn: 2497})-[:PEERS_WITH*2]-(b:AS) RETURN count(b) AS n",
    "MATCH (a:AS {asn: 2497})-[:PEERS_WITH*3]-(b:AS) RETURN count(b) AS n",
    "MATCH (a:AS {asn: 2497})-[:PEERS_WITH*..1]-(b:AS) RETURN count(b) AS n",
    "MATCH (a:AS {asn: 2497})-[:PEERS_WITH*..2]-(b:AS) RETURN count(b) AS n",
    # LIMIT and SKIP values
    "MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn LIMIT 3",
    "MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn LIMIT 4",
    "MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn DESC SKIP 1 LIMIT 2",
    "MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn DESC SKIP 2 LIMIT 5",
    # implicit column names render each text's values
    "RETURN 1+1",
    "RETURN 2+2",
    "RETURN 'x' + 1, [1, 'a'][0]",
    "RETURN 'y' + 2, [3, 'b'][1]",
    "MATCH (a:AS {asn: 2497}) RETURN size([(a)-[:PEERS_WITH]-(b) WHERE b.asn > 1 | b.asn])",
    "MATCH (a:AS {asn: 2497}) RETURN size([(a)-[:PEERS_WITH]-(b) WHERE b.asn > 9 | b.asn])",
    "RETURN any(x IN [1, 2] WHERE x = 2), reduce(s = 0, x IN [3] | s + x)",
    "RETURN any(x IN [4, 5] WHERE x = 6), reduce(s = 7, x IN [8] | s + x)",
    # INT and FLOAT tokens differ in kind
    "RETURN 1",
    "RETURN 1.0",
    # a literal list against a parameter
    "MATCH (a:AS) WHERE a.asn IN [5] RETURN a.name AS name",
    "MATCH (a:AS) WHERE a.asn IN [2497] RETURN a.name AS name",
    "MATCH (a:AS) WHERE a.asn IN $p RETURN a.name AS name",
    "MATCH (a:AS {asn: 2497}) RETURN a.name AS name",
    "MATCH (a:AS {asn: 15169}) RETURN a.name AS name",
    # the equality pattern decides ORDER BY reuse
    "RETURN sum(1) ORDER BY sum(1)",
    "RETURN sum(1) ORDER BY sum(2)",
    "MATCH (a:AS) RETURN sum(1) AS s ORDER BY sum(1)",
    "MATCH (a:AS) RETURN sum(1) AS s ORDER BY sum(2)",
    "MATCH (a:AS) RETURN sum(1) AS s ORDER BY sum(1.0)",
    "MATCH (a:AS) RETURN count(1) AS c ORDER BY count(true)",
    "MATCH (a:AS) RETURN count(2) AS c ORDER BY count(true)",
    "UNWIND [1, 2, 3] AS x RETURN x % 3 AS y ORDER BY x % 3",
    "UNWIND [1, 2, 3] AS x RETURN x % 3 AS y ORDER BY x % 2",
    "UNWIND [1, 2] AS x RETURN x % 1 AS y ORDER BY x % true",
    "UNWIND [1, 2] AS x RETURN x % 3 AS y ORDER BY x % true",
    "RETURN 1, true",
    "RETURN 2, true",
    "RETURN 0 AS a, false AS b, 0.0 AS c",
    "RETURN 1 AS a, false AS b, 0.0 AS c",
    # string map keys are syntax
    "RETURN {'asn': 1} AS m",
    "RETURN {'name': 1} AS m",
    "MATCH (a:AS {'asn': 2497}) RETURN a.name AS name",
    "MATCH (a:AS {'name': 2497}) RETURN a.name AS name",
    "RETURN 'asn':AS AS x",
    # $<int> names a parameter
    "RETURN $1 AS x",
    "RETURN $2 AS x",
    "MATCH (a:AS {asn: $1}) RETURN a.name AS name",
    # products and slices keep their numbers in the key
    "RETURN 3 * 2 AS x, [1, 2, 3][0..2] AS y",
    "RETURN 3 * 4 AS x, [1, 2, 3][1..3] AS y",
    # same-shape syntax errors at different columns
    "RETURN 1 AS x, 'a' 'b'",
    "RETURN 1000 AS x, 'a' 'b'",
    "MATCH (a:AS {asn: 2497}) RETURN a.name AS name LIMIT 1 2",
    "MATCH (a:AS {asn: 1}) RETURN a.name AS name LIMIT 100 2",
    # a SKIP of 0 plans no Skip; `*` expands to names that render values
    "MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn SKIP 0 LIMIT 2",
    "MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn SKIP 3 LIMIT 2",
    "WITH 2, 1 RETURN *",
    "WITH 1, 3 RETURN *",
    "WITH 4, 'x' MATCH (a:AS {asn: 2497}) WITH * RETURN *",
    # a bad SKIP raises before a later clause's syntax error
    "WITH 5 AS a SKIP 1 - 2 RETURN a RETURN 7",
    "WITH 6 AS a SKIP 3 - 2 RETURN a RETURN 8",
    # backtick names can spell keywords
    "UNWIND [1, 2] AS x RETURN count(*) AS c",
    "UNWIND [1, 2] AS x RETURN `count`(*) AS c",
    # one token stream spelled two ways: whitespace, keyword case, a comment
    "MATCH (a:AS)  WHERE a.asn = 2497 RETURN a.name AS name",
    "MATCH (a:AS)\nWHERE a.asn = 15169 RETURN a.name AS name",
    "match (a:AS) where a.asn = 2497 return a.name AS name",
    "MATCH (a:AS) WHERE a.asn = 15169 RETURN a.name AS name",
    "MATCH (a:AS) /* by asn */ WHERE a.asn = 2497 RETURN a.name AS name",
    "MATCH (a:AS) // by asn\nWHERE a.asn = 15169 RETURN a.name AS name",
]


def _outcome(run) -> list:
    """``[keys, rendered rows, charged rows]``, or ``[error class, message]``."""
    try:
        result, executed = run()
    except CypherError as exc:
        return [type(exc).__name__, str(exc)]
    rows = [[render_value(value) for value in record.values()] for record in result.records]
    return [list(result.keys), rows, executed.state.rows]


def _small_store():
    return generate_iyp(IYPConfig.small(seed=42)).store


def _alone(store, query: str) -> list:
    """``query``'s own parse() tree run on a fresh engine (on a fresh graph
    when it writes)."""
    def run():
        entry = _QueryEntry(_Shape(parse(query)), ())
        engine = CypherEngine(store if entry.shape.read_only else _small_store())
        return engine._execute(entry, PARAMS, row_budget=BUDGET, deadline=_deadline())
    return _outcome(run)


def _through(engine: CypherEngine, query: str) -> list:
    """``query`` run through ``engine``'s query cache (a write on a fresh graph)."""
    def run():
        entry = engine._entry(query)
        runner = engine if entry.shape.read_only else CypherEngine(_small_store())
        return runner._execute(entry, PARAMS, row_budget=BUDGET, deadline=_deadline())
    return _outcome(run)


@pytest.fixture(scope="module")
def replay_texts() -> list[str]:
    """The seed-7 ``cypher_replay_large`` texts, in replay order."""
    sys.path.insert(0, str(E2E))
    try:
        import workloads
    finally:
        sys.path.remove(str(E2E))
    drawn = workloads.draw_inputs("cypher_replay_large", 7, workloads.Scale(10.0))
    return [query for _, query, _ in drawn["items"]]


def test_shared_shapes_match_own_parse(small_dataset, replay_texts):
    texts = front_end_corpus(small_dataset) + HAND + replay_texts + PAIRS
    store = _small_store()
    engine = CypherEngine(store)
    drifted = [
        (text, observed, expected)
        for text in texts
        if (observed := _through(engine, text)) != (expected := _alone(store, text))
    ]
    assert not drifted, f"{len(drifted)} texts drifted; first: {drifted[0]}"
    stats = engine.cache_stats()
    assert stats["shapes"] < stats["entries"] / 2, stats  # the oracle did share shapes


def _pair(first: str, second: str) -> tuple[str, str]:
    return PAIRS[PAIRS.index(first)], PAIRS[PAIRS.index(second)]


@pytest.mark.parametrize("left, right", [
    _pair("MATCH (a:AS {asn: 2497})-[:PEERS_WITH*1..3]-(b:AS) RETURN count(b) AS n",
          "MATCH (a:AS {asn: 2497})-[:PEERS_WITH*1..4]-(b:AS) RETURN count(b) AS n"),
    _pair("MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn LIMIT 3",
          "MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn LIMIT 4"),
    _pair("RETURN 1+1", "RETURN 2+2"),
    _pair("RETURN 1", "RETURN 1.0"),
    _pair("MATCH (a:AS) WHERE a.asn IN [5] RETURN a.name AS name",
          "MATCH (a:AS) WHERE a.asn IN $p RETURN a.name AS name"),
    _pair("UNWIND [1, 2, 3] AS x RETURN x % 3 AS y ORDER BY x % 3",
          "UNWIND [1, 2, 3] AS x RETURN x % 3 AS y ORDER BY x % 2"),
    _pair("UNWIND [1, 2] AS x RETURN x % 1 AS y ORDER BY x % true",
          "UNWIND [1, 2] AS x RETURN x % 3 AS y ORDER BY x % true"),
    _pair("RETURN {'asn': 1} AS m", "RETURN {'name': 1} AS m"),
    _pair("RETURN $1 AS x", "RETURN $2 AS x"),
    _pair("RETURN 1 AS x, 'a' 'b'", "RETURN 1000 AS x, 'a' 'b'"),
    _pair("UNWIND [1, 2] AS x RETURN count(*) AS c",
          "UNWIND [1, 2] AS x RETURN `count`(*) AS c"),
])
def test_one_literal_changes_the_outcome(small_store, left, right):
    """Each pair, run on one engine, comes out differently."""
    engine = CypherEngine(small_store)
    assert _through(engine, left) != _through(engine, right)


def test_concurrent_texts_of_one_shape(small_store):
    """Texts of one shape and form run at once on one engine, each with its
    own values, while threads switch every few microseconds."""
    engine = CypherEngine(small_store)
    texts = [f"UNWIND range(1, 300) AS x RETURN x - x + {value} AS v, '{value}' AS s"
             for value in range(1000, 1040)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(8)

    def worker(offset: int) -> None:
        try:
            barrier.wait()
            for index in range(offset, offset + 200):
                value = 1000 + index % len(texts)
                # A parameter keeps the result memo out, so every run executes.
                result = engine.execute(texts[value - 1000], {"run": index})
                assert result.keys == ["v", "s"]
                assert {tuple(record.values()) for record in result.records} == {
                    (value, str(value))}
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(offset * 7,)) for offset in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert engine.cache_stats()["shapes"] == 1
    assert len(engine._forms) == 1


def test_shape_hit_lowers_nothing(tiny_store, monkeypatch):
    """A shape is lowered once per statistics version, its sub-chains too."""
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(executor, "lower_query", counting("query", executor.lower_query))
    monkeypatch.setattr(lowering, "lower_pattern", counting("pattern", lowering.lower_pattern))
    engine = CypherEngine(tiny_store)
    template = ("MATCH (a:AS {{asn: {}}}) WHERE exists((a)-[:COUNTRY]->()) "
                "RETURN a.name AS name LIMIT {}")
    assert engine.execute(template.format(2497, 1)).single()["name"] == "IIJ"
    assert calls == ["query", "pattern"]
    assert engine.execute(template.format(15169, 2)).single()["name"] == "GOOGLE"
    engine.execute(template.format(2497, 1), {"run": 1}, profile=True)
    assert calls == ["query", "pattern"]
    tiny_store.create_node(["AS"], {"asn": 1, "name": "NEW"})  # bumps stats_version
    assert engine.execute(template.format(2497, 3)).single()["name"] == "IIJ"
    assert calls == ["query", "pattern"] * 2
    assert engine.cache_stats()["shapes"] == 1


def test_skip_and_limit_resolve_per_run(tiny_store):
    """SKIP/LIMIT counts come from each run's values: a SKIP of 0 plans no
    Skip operator and charges no rows for it, and a bad count raises before
    a later clause's syntax error, as counts read while lowering did."""
    engine = CypherEngine(tiny_store)
    template = "MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn {}LIMIT 1"

    def run(query: str) -> tuple:
        _, executed = engine._execute(engine._entry(query), {}, profiled=True)
        return _profile_lines(profile_tree(executed.root, executed)), executed.state.rows

    assert [line[1] for line in run(template.format("SKIP 1 "))[0]][:3] == [
        "ProduceResults", "Limit", "Skip"]
    assert run(template.format("SKIP 0 ")) == run(template.format(""))
    with pytest.raises(CypherRuntimeError, match="SKIP requires"):
        engine.execute("WITH 5 AS a SKIP 1 - 2 RETURN a RETURN 7")
    with pytest.raises(CypherSyntaxError, match="RETURN must be the final clause"):
        engine.execute("WITH 6 AS a SKIP 3 - 2 RETURN a RETURN 8")


def _profile_lines(profile: dict, depth: int = 0) -> list:
    """``(depth, label, rows)`` per operator of a ``ResultSet.profile`` tree."""
    lines = [(depth, profile["operator"], profile["detail"], profile["rows"])]
    for child in profile.get("children", ()):
        lines.extend(_profile_lines(child, depth + 1))
    return lines


def test_concurrent_profiles_of_one_shape(small_store):
    """PROFILE runs of one shape at once, with their own LIMITs and implicit
    column names, each report what a run of their text alone reports: the
    operator tree is shared, its counters and argument rows are per run."""
    texts = [
        f"MATCH (a:AS) WHERE a.asn > {index * 1000 + 7} "
        "OPTIONAL MATCH (a)-[:PEERS_WITH]->(b:AS) WHERE exists((b)-[:COUNTRY]->(:Country)) "
        f"RETURN a.asn AS asn, count(b) AS peers, '{index}x' AS tag, "
        "size([(a)-[:ORIGINATE]->(p) | p]) AS prefixes "
        f"ORDER BY asn LIMIT {index % 5 + 1}"
        for index in range(16)
    ]

    def observed(result) -> list:
        rows = [[render_value(value) for value in record.values()] for record in result.records]
        return [list(result.keys), rows, _profile_lines(result.profile)]

    alone = [observed(CypherEngine(small_store).execute(text, profile=True)) for text in texts]
    assert len({str(lines[2]) for lines in alone}) > 1  # the LIMITs show in the trees
    engine = CypherEngine(small_store)
    errors: list[BaseException] = []
    barrier = threading.Barrier(8)

    def worker(offset: int) -> None:
        try:
            barrier.wait()
            for index in range(offset, offset + 40):
                number = index % len(texts)
                result = engine.execute(texts[number], profile=True)
                assert observed(result) == alone[number], texts[number]
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(offset * 3,)) for offset in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[0]
    assert engine.cache_stats()["shapes"] == 1



def test_failed_lowering_is_kept(tiny_store, monkeypatch):
    """A lowering that fails is kept like one that succeeds: its error
    depends on the tree alone.  Every run still evaluates the SKIP/LIMIT
    counts lowered before the error, then raises a fresh copy of it."""
    calls = []
    real = executor.lower_query

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(executor, "lower_query", counting)
    engine = CypherEngine(tiny_store)
    raised = []
    for _ in range(3):
        with pytest.raises(CypherSyntaxError, match="RETURN must be the final clause") as info:
            engine.execute("WITH 1 AS a SKIP 1 RETURN a RETURN 2")
        raised.append(info.value)
    assert len(calls) == 1
    assert len({id(error) for error in raised}) == 3
    query = "WITH 1 AS a SKIP $skip RETURN a RETURN 2"
    with pytest.raises(CypherSyntaxError, match="RETURN must be the final clause"):
        engine.execute(query, {"skip": 1})
    with pytest.raises(CypherRuntimeError, match="SKIP requires"):
        engine.execute(query, {"skip": -1})
    assert len(calls) == 2


def test_explain_then_execute_tokenizes_once(tiny_store, monkeypatch):
    """EXPLAIN goes through the query cache: a new text explained and then
    executed is tokenized once, and both use the one cached shape."""
    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    # The engine tokenizes to find the shape and hands the tokens to the parser.
    monkeypatch.setattr(parser, "tokenize", counting)
    monkeypatch.setattr(executor, "tokenize", counting)
    engine = CypherEngine(tiny_store)
    query = "MATCH (a:AS) WHERE a.asn = 2497 RETURN a.name AS explained_once"
    plan = engine.explain(query)
    assert engine.execute(query).single()["explained_once"] == "IIJ"
    assert calls == [query]
    assert "+- HashLookup(:AS.asn, label scan, pushed a.asn =)" in plan
    assert engine.cache_stats()["shapes"] == 1


@pytest.mark.parametrize("query, params", [
    ("WITH 1 AS a RETURN a RETURN 2", {}),
    ("WITH 1 AS a SKIP $skip RETURN a RETURN 2", {"skip": -1}),
    ("MATCH (a:AS) RETURN a.asn AS asn LIMIT $limit", {}),
])
def test_explain_raises_what_execution_raises(tiny_store, query, params):
    """EXPLAIN evaluates SKIP/LIMIT counts and raises a lowering error as a
    run does before its first row."""
    engine = CypherEngine(tiny_store)
    with pytest.raises(CypherError) as explained:
        engine.explain(query, **params)
    with pytest.raises(CypherError) as executed:
        engine.execute(query, params)
    assert type(explained.value) is type(executed.value)
    assert str(explained.value) == str(executed.value)


def test_shape_mate_is_not_tokenized(tiny_store, monkeypatch):
    """A new text whose form (the text between its literals) the engine
    knows finds its shape from its literals alone: only the form's first
    text is tokenized, and each text runs with its own values."""
    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser, "tokenize", counting)
    monkeypatch.setattr(executor, "tokenize", counting)
    engine = CypherEngine(tiny_store)
    template = "MATCH (a:AS) WHERE a.asn = {} AND a.name <> {} RETURN a.name AS name LIMIT {}"
    first = template.format(2497, "'x'", 1)
    assert engine.execute(first).single()["name"] == "IIJ"
    assert engine.execute(template.format(15169, '"y"', 2)).single()["name"] == "GOOGLE"
    assert engine.execute(template.format(15169, "'GOOGLE'", 3)).records == []
    assert calls == [first]
    # A literal of another kind takes the tokens' path, and gets its own shape.
    other_kind = template.format(2497.0, "'x'", 1)
    assert engine.execute(other_kind).single()["name"] == "IIJ"
    assert calls == [first, other_kind]
    assert engine.cache_stats()["shapes"] == 2


def test_column_named_by_a_literal_parses_once(tiny_store, monkeypatch):
    """A text whose implicit column name holds a literal is a shape of its
    own.  Each later text of its form and equality pattern is tokenized and
    parsed once, straight into its own tree, and names its column after its
    own values."""
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(parser, "tokenize", counting("tokenize", tokenize))
    monkeypatch.setattr(executor, "tokenize", counting("tokenize", tokenize))
    monkeypatch.setattr(executor, "parse_shape", counting("parse", executor.parse_shape))
    engine = CypherEngine(tiny_store)
    assert engine.execute("RETURN 1+1").single()["1 + 1"] == 2
    calls.clear()
    for value in (2, 3):
        result = engine.execute(f"RETURN {value}+{value}")
        assert result.keys == [f"{value} + {value}"]
        assert result.single()[f"{value} + {value}"] == 2 * value
    assert calls == ["tokenize", "parse"] * 2


def _entry_outcome(engine: CypherEngine, text: str) -> list:
    """What ``engine``'s query cache makes of ``text``: the error it raises,
    or the entry's slot values and its shape's tree, with their types."""
    try:
        entry = engine._entry(text)
    except CypherError as exc:
        return [type(exc).__name__, str(exc)]
    return [repr(entry.slots), repr(entry.shape.tree), entry.shape.read_only]


#: Texts whose forms hold what decides a key beyond the literals' kinds:
#: TRUE/FALSE/NULL beside numbers they may equal, numbers read as syntax,
#: map-key strings, comments that hold digits or quotes, Unicode digits and
#: names before a '.'-led fraction.
FORM_SEEDS = [
    "MATCH (a:AS) WHERE a.x = true AND a.asn = 7 RETURN a.name AS name",
    "MATCH (a:AS) WHERE a.x = false AND a.asn = 2 RETURN 0.5 AS half",
    "RETURN null AS n, 3 AS three, 'null' AS s",
    "RETURN 7 AS x, true AS t, 0.5 AS f, false AS u",
    "RETURN 1.5 AS f, 15 AS i, '15' AS s // 15 it's\n",
    "RETURN /* 'q' 3 */ 4 AS x, \"4\" AS y",
    "RETURN ٣ AS x, 3 AS y, 3.0 AS z",
    "RETURN $1 AS p, 1 AS one, [1, 2][0..1] AS s, 2 * 3 AS product",
    "MATCH (a:AS {asn: 2497})-[:PEERS_WITH*2]-(b:AS) RETURN count(b) AS n, 2 AS two",
    "MATCH (a:AS {asn: 2497})-[:PEERS_WITH*1..3]-(b:AS) RETURN 3 AS three",
    "RETURN {'asn': 'asn', name: 'x'} AS m, 'asn' AS s",
    "MATCH (n:AS) RETURN n.5 AS x, 5 AS y",
]
#: Spellings put in place of a text's literals: every literal kind, the
#: TRUE/1 and FALSE/0 equality groups, Unicode digits, '.'-led and exponent
#: fractions, strings that spell keywords or numbers, and an int past
#: ``int()``'s digit limit.
_SPELLINGS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "0.0", "1.0", "2.0", "'1'", "'asn'"]),
    st.integers(0, 99_999).map(str),
    st.sampled_from([
        "00", ".5", "1e3", "2.5E-2", "٣", "1٣", "١٢.٥", "9" * 5000,
        "'true'", "''", '"x"', '"it\'s"', "'a // b'",
    ]),
    st.text(st.characters(blacklist_characters="'\"\\`", blacklist_categories=("Cs",)),
            max_size=6).map(lambda text: f"'{text}'"),
)
#: Text spliced in anywhere: comments that hold digits or quotes, escapes,
#: backtick names, a name before a '.'-led fraction, numbers the parser
#: reads as syntax, map-key strings, TRUE/FALSE/NULL and their equals.
_SPLICES = st.sampled_from([
    " // 12 it's\n", " /* 'q' 3 */ ", " /* don't */ ", ' // "7"\n', " a1.5 ", " n.5 ",
    " '\\n' ", " 'it\\'s' ", " `x` ", " $1 ", " *2 ", " ..3 ", " {'k': 1} ", " 'k': ",
    " true ", " false ", " null ", " = 1 ", " = 0 ", " 1 ", " 0.0 ", " '' ",
])


@pytest.fixture(scope="module")
def corpus_texts(small_dataset, replay_texts) -> list[str]:
    return front_end_corpus(small_dataset) + HAND + replay_texts


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_warm_entry_matches_fresh_entry(corpus_texts, data):
    """A text run after another of its form gets the entry a fresh engine
    gives it, or the error it raises there.  The first text is a corpus or
    hand text with some text perhaps spliced in anywhere; the second
    respells some of its literals."""
    seed = data.draw(st.one_of(st.sampled_from(FORM_SEEDS + PAIRS),
                               st.sampled_from(corpus_texts)))
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(seed)))
        seed = seed[:at] + data.draw(_SPLICES) + seed[at:]
    parts = LITERAL_SPLIT.split(seed)
    for index in range(1, len(parts), 2):
        if data.draw(st.booleans()):
            parts[index] = data.draw(_SPELLINGS)
    text = "".join(parts)
    engine = CypherEngine(GraphStore())
    _entry_outcome(engine, seed)
    assert _entry_outcome(engine, text) == _entry_outcome(CypherEngine(GraphStore()), text)



@pytest.mark.parametrize("query", [
    "MATCH (i:IXP)-[:COUNTRY]->(:Country {country_code: 'NO'} RETURN i.name AS ixp",
    "MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn LIMIT 'unterminated",
    "MATCH (a:AS) DELETE a",
])
def test_syntax_error_is_kept(tiny_store, monkeypatch, query):
    """A text that does not parse keeps its syntax error in the query
    cache: a repeat is not tokenized again, and each raises a fresh copy
    with the class, message and position of the first."""
    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser, "tokenize", counting)
    monkeypatch.setattr(executor, "tokenize", counting)
    engine = CypherEngine(tiny_store)
    raised = []
    for run in (engine.execute, engine.is_read_only, engine.explain, engine.execute):
        try:
            run(query)
        except CypherSyntaxError as error:
            raised.append(error)
    assert len(calls) == 1
    first = raised[0]
    assert len(raised) >= 3 and len({id(error) for error in raised}) == len(raised)
    for error in raised:
        assert (type(error), str(error), error.position) == (
            type(first), str(first), first.position)
