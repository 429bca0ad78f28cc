"""Golden of the Cypher front end (lexer plus parser).

Pins, per query text, a SHA-256 of ``repr(parse(text))`` or the error class
and message (which carries the line and column) it raises.  A rewrite of
``lexer.py`` or ``parser.py`` must leave every entry unchanged.

Queries:

* the perturbation corpus (every seed-7 CypherEval gold query on the small
  graph plus its LLM-shaped perturbations);
* the broken-syntax variants of every gold query for seeds 0-11;
* a hand list of lexer edge cases: comments, strings, escapes, backticks,
  number shapes, keywords used as names and non-ASCII letters and digits.

Regenerate only for an intended change of ASTs or errors::

    python -m pytest tests/test_parse_golden.py -q --golden-update
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cypher import parse
from repro.cypher.errors import CypherError
from tests.conftest import perturbation_corpus

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "parse_digest.json"

BREAK_SEEDS = range(12)

HAND = [
    # comments
    "RETURN 1 // trailing comment",
    "RETURN 1 //",
    "RETURN 1 /* block at EOF */",
    "RETURN 1 /* unterminated",
    "RETURN /* inner */ 1 /**/ AS x",
    "MATCH (a) // one\n// two\nRETURN a",
    "RETURN 1 /* a */ /* b */ + /* c */ 2 AS x",
    "RETURN 1 / 2 AS half",
    # strings
    "RETURN '// not a comment' AS s",
    "RETURN '/* not a comment */' AS s",
    'RETURN "double" AS s, \'single\' AS t',
    "RETURN 'it\\'s' AS s",
    'RETURN "say \\"hi\\"" AS s',
    "RETURN 'tab\\there\\nnewline\\\\' AS s",
    "RETURN '\\u0041\\u00e9' AS s",
    "RETURN '\\q' AS s",
    "RETURN 'unterminated",
    "RETURN 'dangling\\",
    "RETURN '' AS empty, \"\" AS empty2",
    "RETURN 'multi\nline' AS s",
    "MATCH (a {name: 'x'} 'oops') RETURN a",
    "MATCH (a) WHERE a.name = 'x' 'y' RETURN a",
    "RETURN 'a' 'b'",
    "MATCH (a:AS {name: 'IIJ'}) RETURN a.name AS name",
    # backticks
    "MATCH (`weird name`:`My Label`) RETURN `weird name`.`a key` AS `out col`",
    "RETURN `unterminated",
    "MATCH (n) RETURN n.`` AS x",
    # numbers
    "MATCH (a)-[*1..3]->(b) RETURN b",
    "MATCH (a)-[*..3]->(b) RETURN b",
    "MATCH (a)-[*2..]->(b) RETURN b",
    "MATCH (a)-[*]->(b) RETURN b",
    "RETURN 1.prop",
    "RETURN .5 AS x",
    "RETURN 1e5 AS x",
    "RETURN 2.5e-3 AS x",
    "RETURN 2.5E+3 AS x",
    "RETURN 1e AS x",
    "RETURN 1e+ AS x",
    "RETURN 1.e5 AS x",
    "RETURN [1, 2, 3][0..2] AS x",
    "RETURN [1, 2, 3][..2] AS x, [1, 2, 3][1..] AS y",
    "RETURN 1...5",
    "RETURN 007 AS x",
    "RETURN -1 - -2 * 3 % 4 ^ 2 ^ 3 / 5 + 6 AS x",
    # keywords used as names
    "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN a.asn AS asn, c.country_code AS cc",
    "MATCH (n:Match:Return) RETURN n.where AS where_",
    "MATCH (count) RETURN count",
    "MATCH (a) RETURN a.all AS all, a.end AS e",
    "RETURN {match: 1, `return`: 2, 'str': 3} AS m",
    "RETURN $match AS p, $0 AS q, $name AS r",
    "match (a:as) where a.asn in [1, 2] return distinct a order by a.asn desc skip 1 limit 2",
    # non-ASCII letters and digits
    "RETURN ٣ AS x",
    "RETURN ٣٤.٥ AS x",
    "RETURN é AS x",
    "MATCH (é:Été {naïve: 1}) RETURN é.naïve",
    "RETURN a² AS x",
    "RETURN ½ AS x",
    "RETURN Ⅻ AS x",
    "RETURN 1 + ½",
    "RETURN ın AS x",
    # punctuation and grammar corners
    "RETURN 1 <> 2, 1 <= 2, 1 >= 2, 'a' =~ 'a.*', 1 < 2 < 3",
    "MATCH (a)< -(b) RETURN a",
    "MATCH (a)- ->(b) RETURN a",
    "MATCH (a)<-->(b) RETURN a",
    "MATCH (a)-[r:X|:Y|Z]-(b) RETURN r",
    "MATCH p = shortestPath((a)-[*]-(b)) RETURN p",
    "RETURN 1;",
    "RETURN 1; RETURN 2",
    "RETURN #",
    "RETURN 1 @ 2",
    "",
    "   ",
    "// only a comment",
    "RETURN",
    "MATCH (a) RETURN a UNION MATCH (b) RETURN b UNION ALL MATCH (c) RETURN c",
    "CASE",
    "RETURN CASE WHEN true THEN 1 ELSE 2 END AS x, CASE 1 WHEN 1 THEN 'a' END AS y",
    "RETURN [x IN [1, 2] WHERE x > 1 | x * 2] AS xs, reduce(s = 0, x IN [1] | s + x) AS t",
    "RETURN any(x IN [1] WHERE x = 1) AS a, all(x IN [] WHERE false) AS b",
    "MATCH (a) WHERE a.name STARTS WITH 'I' AND a.name ENDS WITH 'J' OR a.name CONTAINS 'x' "
    "XOR NOT a.x IS NOT NULL RETURN a",
    "MATCH (a) WHERE a:AS:Org RETURN count(*), count(DISTINCT a)",
    "MATCH (a) SET a.x = 1, a += {y: 2}, a = {z: 3}, a:L REMOVE a.x, a:L DETACH DELETE a",
    "MERGE (a:T {k: 1}) ON CREATE SET a.c = 1 ON MATCH SET a.m = 1 ON DELETE SET a.x = 1",
    "UNWIND [1, 2] AS x WITH DISTINCT * ORDER BY x WHERE x > 1 RETURN x",
    "MATCH (a) RETURN EXISTS((a)-->()), EXISTS { MATCH (a)-->() }, EXISTS(a.x)",
]


def _outcome(text: str) -> list:
    """``["ok", sha256 of repr(AST)]`` or ``[error class, message]``."""
    try:
        tree = parse(text)
    except CypherError as exc:
        return [type(exc).__name__, str(exc)]
    return ["ok", hashlib.sha256(repr(tree).encode()).hexdigest()[:32]]


def front_end_corpus(dataset) -> list[str]:
    """The pinned corpus: the perturbation corpus with broken-syntax seeds
    0-11 (the hand list is kept apart)."""
    return perturbation_corpus(dataset, BREAK_SEEDS)


def _query_key(query: str) -> str:
    return hashlib.sha256(query.encode()).hexdigest()[:16]


def _observe(corpus: list[str]) -> dict:
    return {
        "corpus_size": len(corpus),
        "corpus": {_query_key(text): _outcome(text) for text in corpus},
        "hand": {text: _outcome(text) for text in HAND},
    }


def _dump(observed: dict) -> str:
    """The golden as JSON, one query per line."""
    lines = ["{", f' "corpus_size": {observed["corpus_size"]},']
    for section in ("corpus", "hand"):
        entries = sorted(observed[section].items())
        lines.append(f' "{section}": {{')
        lines.extend(
            f"  {json.dumps(key)}: {json.dumps(value)}{',' if index < len(entries) - 1 else ''}"
            for index, (key, value) in enumerate(entries)
        )
        lines.append(" }," if section == "corpus" else " }")
    return "\n".join(lines + ["}"]) + "\n"


def test_parse_matches_golden(request, small_dataset):
    observed = _observe(front_end_corpus(small_dataset))
    if request.config.getoption("--golden-update", default=False) or not GOLDEN_PATH.exists():
        GOLDEN_PATH.write_text(_dump(observed))
        pytest.skip("parse golden recorded")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert observed["corpus_size"] == golden["corpus_size"], "parse corpus changed"
    assert set(observed["corpus"]) == set(golden["corpus"])
    drifted = [key for key in golden["corpus"] if observed["corpus"][key] != golden["corpus"][key]]
    assert not drifted, (
        f"{len(drifted)} corpus texts drifted; first: {drifted[0]} "
        f"observed {observed['corpus'][drifted[0]]} golden {golden['corpus'][drifted[0]]}"
    )
    assert set(observed["hand"]) == set(golden["hand"])
    for text, expected in golden["hand"].items():
        assert observed["hand"][text] == expected, text
