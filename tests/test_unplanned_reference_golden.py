"""Golden of the semantic reference (``CypherEngine(store, planner=False)``).

The planned-vs-unplanned oracles check every planning decision (anchor
choice, pushdown, reversal), but both engines run the same operator chain,
so those oracles cannot see a fault in the chain itself.  This golden can:
it pins, per query, the reference's keys and a SHA-256 of its rendered rows
in produced order (or the error class it raises), recorded from an earlier,
independent row-at-a-time matcher.

Queries:

* the perturbation corpus (every seed-7 CypherEval gold query on the small
  graph plus its LLM-shaped perturbations); for these the planned engine's
  intermediate rows charged are pinned too, so a change to the operator
  chain cannot move the row-budget currency unnoticed;
* a hand list of pattern expressions (pattern predicates, ``EXISTS``,
  pattern comprehensions) and MERGE shapes the corpus never produces.
  Writes run on a fresh store each.

Regenerate only for an intended change of results::

    python -m pytest tests/test_unplanned_reference_golden.py -q --golden-update
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cypher import CypherEngine, render_value
from repro.cypher.errors import CypherError
from repro.graph import GraphStore

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "unplanned_reference_digest.json"

#: Read-only pattern-expression shapes, run on the small graph.
HAND_READS = [
    # a pattern predicate on a list-comprehension variable
    "MATCH (a:AS) WHERE a.asn < 4000 "
    "RETURN a.asn AS asn, [x IN [a] WHERE (x)-[:MEMBER_OF]->() | x.asn] AS xs ORDER BY asn",
    # a nested pattern comprehension
    "MATCH (a:AS) WHERE a.asn < 4000 RETURN a.asn AS asn, "
    "[(a)-[:MEMBER_OF]->(i:IXP) | [(i)<-[:MEMBER_OF]-(b:AS) | b.asn]] AS peers ORDER BY asn",
    # EXISTS { MATCH ... }
    "MATCH (a:AS) WHERE EXISTS { MATCH (a)-[:ORIGINATE]->(:Prefix) } "
    "RETURN a.asn AS asn ORDER BY asn",
    "MATCH (a:AS) RETURN a.asn AS asn, EXISTS((a)-[:DEPENDS_ON*1..2]->(:AS)) AS e "
    "ORDER BY asn",
    # a pattern predicate on a variable an OPTIONAL MATCH left null
    "MATCH (a:AS) OPTIONAL MATCH (a)-[:MEMBER_OF]->(i:IXP {name: 'no such ixp'}) "
    "RETURN a.asn AS asn, exists((i)-[:COUNTRY]->()) AS e ORDER BY asn",
    "MATCH (a:AS) OPTIONAL MATCH (a)-[:MEMBER_OF]->(i:IXP) WHERE i.name < 'IX-1' "
    "WITH a, i WHERE i IS NULL OR (i)-[:COUNTRY]->(:Country) "
    "RETURN a.asn AS asn, i.name AS ixp",
    # a pattern predicate whose two ends are both bound
    "MATCH (a:AS), (c:Country) WHERE (a)-[:COUNTRY]->(c) "
    "RETURN a.asn AS asn, c.country_code AS cc",
    "MATCH (a:AS)-[:MEMBER_OF]->(i:IXP), (b:AS) WHERE a.asn < b.asn AND (b)-[:MEMBER_OF]->(i) "
    "AND (a)-[:PEERS_WITH]-(b) RETURN a.asn AS a, b.asn AS b, i.name AS ixp",
    # a comprehension that rebinds an outer relationship variable
    "MATCH (a:AS)-[r:PEERS_WITH]->(b:AS) "
    "RETURN a.asn AS a, [(a)-[r]->(x) | x.asn] AS same, [(b)<-[r]-(y) | y.asn] AS back",
    "MATCH (a:AS)-[r:DEPENDS_ON]->(b:AS) RETURN a.asn AS a, b.asn AS b, "
    "[(x:AS)-[r]->(y:AS) | [x.asn, y.asn]] AS endpoints",
    # a pattern expression inside ORDER BY
    "MATCH (a:AS) RETURN a.asn AS asn "
    "ORDER BY size([(a)-[:PEERS_WITH]-(b:AS) | b]) DESC, asn LIMIT 25",
    "MATCH (a:AS) RETURN a.asn AS asn ORDER BY (a)-[:MEMBER_OF]->(:IXP) DESC, asn DESC",
    # pattern predicates: negated, unbound ends, var-length, paths, both directions
    "MATCH (a:AS) WHERE NOT (a)-[:MEMBER_OF]->(:IXP) RETURN count(a) AS n",
    "MATCH (a:AS) WHERE (a)-[:MEMBER_OF]->(:IXP) RETURN count(a) AS n",
    "MATCH (a:AS) WHERE (:IXP)<-[:MEMBER_OF]-(a) RETURN count(a) AS n",
    "MATCH (p:Prefix) WHERE (p)<-[:ORIGINATE]-(:AS)-[:COUNTRY]->(:Country {country_code: 'JP'}) "
    "RETURN p.prefix AS prefix",
    "RETURN size([(a:AS)-[:MEMBER_OF]->(i:IXP {name: 'IX-1'}) | a.asn]) AS n",
    "RETURN [(a:AS)-[:COUNTRY]->(c:Country {country_code: 'JP'}) | a.asn] AS jp",
    "RETURN [(c:Country {country_code: 'JP'})<-[:COUNTRY]-(a) | labels(a)[0]] AS jp",
    "RETURN [(n {country_code: 'JP'})<-[:COUNTRY]-(a:AS) | a.asn] AS jp",
    "MATCH (a:AS) WHERE a.asn < 3000 "
    "RETURN a.asn AS asn, [(a)-[r:DEPENDS_ON*1..3]->(:AS) | size(r)] AS lengths "
    "ORDER BY asn",
    "MATCH (a:AS) WHERE a.asn < 3000 RETURN a.asn AS asn, "
    "[(a)-[:DEPENDS_ON]->(b)-[:DEPENDS_ON]->(c) WHERE c.asn > a.asn | [b.asn, c.asn]] AS hops "
    "ORDER BY asn",
    "MATCH (a:AS) WHERE a.asn < 3000 RETURN a.asn AS asn, "
    "[(a)-[:PEERS_WITH]-(b)-[:PEERS_WITH]-(c) | c.asn] AS two_hop ORDER BY asn",
    "MATCH (a:AS) WITH a, size([(a)-[:ORIGINATE]->() | 1]) AS n WHERE n > 1 "
    "AND (a)-[:COUNTRY]->() RETURN a.asn AS asn, n ORDER BY n DESC, asn",
    "MATCH (a:AS) RETURN count(*) AS n, "
    "sum(size([(a)-[:MEMBER_OF]->(i) | i])) AS memberships",
    "UNWIND [2497, 15169, 174, -1] AS asn MATCH (a:AS {asn: asn}) "
    "RETURN asn, any(x IN [(a)-[:COUNTRY]->(c) | c.country_code] WHERE x = 'JP') AS jp",
    "MATCH (a:AS) WHERE a.asn < 3000 AND (a)-[:PEERS_WITH]-() "
    "AND exists((a)<-[:DEPENDS_ON]-()) RETURN a.asn AS asn",
    "MATCH (x) WHERE (x)-[:COUNTRY]->() AND NOT x:AS RETURN labels(x)[0] AS l, count(*) AS n",
    "MATCH (a:AS) RETURN [(a)-[:COUNTRY]->(c) | c.name][0] AS country, count(*) AS n",
    # a later MATCH anchored on a variable an earlier one bound
    "MATCH (a:AS {asn: 2497}) MATCH (x:Country {country_code: 'JP'})-[:COUNTRY]-(a) "
    "RETURN x.name AS name",
]

#: Write shapes, each on a fresh store from :func:`_write_store`.
HAND_WRITES = [
    "UNWIND [1, 1, 2] AS x MERGE (n:T {k: x}) RETURN n.k AS k",
    "UNWIND [1, 1, 2] AS x MERGE (n:T {k: x}) ON CREATE SET n.new = true "
    "ON MATCH SET n.seen = true RETURN n.k AS k, n.new AS new, n.seen AS seen",
    # MERGE from a bound far end, both directions
    "MATCH (c:Country {country_code: 'JP'}) MERGE (a:AS)-[:COUNTRY]->(c) "
    "RETURN a.asn AS asn",
    "MATCH (c:Country {country_code: 'JP'}) MERGE (c)<-[:COUNTRY]-(a:AS) "
    "RETURN a.asn AS asn",
    "MATCH (c:Country) MERGE (a:AS {asn: 2497})-[:COUNTRY]->(c) "
    "RETURN c.country_code AS cc, a.asn AS asn",
    "MATCH (c:Country) MERGE (c)<-[:COUNTRY]-(a:AS {asn: 2497}) "
    "RETURN c.country_code AS cc, a.asn AS asn",
    "MATCH (a:AS) MERGE (a)-[:PEERS_WITH]-(b:AS) RETURN a.asn AS a, b.asn AS b",
    "MATCH (a:AS) MERGE (a)-[r:POPULATION]->(c:Country) "
    "RETURN a.asn AS a, c.country_code AS cc, r.percent AS pct",
    "MATCH (a:AS {asn: 15169}) MERGE (a)-[:ORIGINATE]->(p:Prefix {prefix: '198.51.100.0/24'}) "
    "WITH a MATCH (a)-[:ORIGINATE]->(p) RETURN p.prefix AS prefix",
    "MERGE (a:AS {asn: 2497}) RETURN a.name AS name",
    "MATCH (a:AS) WHERE (a)-[:COUNTRY]->(:Country {country_code: 'US'}) "
    "MERGE (a)-[:TAGGED]->(t:Tag {label: 'us'}) RETURN a.asn AS asn, t.label AS tag",
]


def _write_store() -> GraphStore:
    """A fresh hand-built graph: two ASes, two countries, a peering, a prefix."""
    store = GraphStore()
    iij = store.create_node(["AS"], {"asn": 2497, "name": "IIJ"})
    google = store.create_node(["AS"], {"asn": 15169, "name": "GOOGLE"})
    jp = store.create_node(["Country"], {"country_code": "JP", "name": "Japan"})
    us = store.create_node(["Country"], {"country_code": "US", "name": "United States"})
    prefix = store.create_node(["Prefix"], {"prefix": "203.0.113.0/24", "af": 4})
    store.create_relationship(iij.node_id, "COUNTRY", jp.node_id)
    store.create_relationship(iij.node_id, "POPULATION", jp.node_id, {"percent": 5.3})
    store.create_relationship(google.node_id, "COUNTRY", us.node_id)
    store.create_relationship(iij.node_id, "PEERS_WITH", google.node_id, {"rel": 0})
    store.create_relationship(iij.node_id, "ORIGINATE", prefix.node_id)
    store.create_property_index("AS", "asn")
    return store


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:32]


def _reference_outcome(engine: CypherEngine, query: str) -> list:
    """``[keys, sha256 of rendered rows in produced order]`` or ``[error class]``."""
    try:
        result = engine.execute(query)
    except CypherError as exc:
        return [type(exc).__name__]
    rows = [[render_value(value) for value in record.values()] for record in result.records]
    return [list(result.keys), _digest(rows)]


def _planned_rows_charged(engine: CypherEngine, query: str):
    """Intermediate rows the planned engine charges, or None if it raises."""
    try:
        _, root = engine._execute(engine._entry(query).tree, {})
    except CypherError:
        return None
    return root.state.rows


def _query_key(query: str) -> str:
    return hashlib.sha256(query.encode()).hexdigest()[:16]


def _observe(small_store, perturbed_queries) -> dict:
    reference = CypherEngine(small_store, planner=False)
    planned = CypherEngine(small_store)
    corpus = {
        _query_key(query): _reference_outcome(reference, query)
        + [_planned_rows_charged(planned, query)]
        for query in perturbed_queries
    }
    hand = {query: _reference_outcome(reference, query) for query in HAND_READS}
    for query in HAND_WRITES:
        hand[query] = _reference_outcome(CypherEngine(_write_store(), planner=False), query)
    return {"corpus_size": len(perturbed_queries), "corpus": corpus, "hand": hand}


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


def test_unplanned_reference_matches_golden(request, small_store, perturbed_queries):
    observed = _observe(small_store, perturbed_queries)
    if request.config.getoption("--golden-update", default=False) or not GOLDEN_PATH.exists():
        GOLDEN_PATH.write_text(_dump(observed))
        pytest.skip("unplanned reference golden recorded")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert observed["corpus_size"] == golden["corpus_size"], "perturbation corpus changed"
    drifted = [key for key in golden["corpus"] if observed["corpus"].get(key) != golden["corpus"][key]]
    assert not drifted, (
        f"{len(drifted)} corpus queries drifted; first: {drifted[0]} "
        f"observed {observed['corpus'].get(drifted[0])} golden {golden['corpus'][drifted[0]]}"
    )
    for query, expected in golden["hand"].items():
        assert observed["hand"].get(query) == expected, query
    assert set(observed["hand"]) == set(golden["hand"])
