"""Rule-based planner: statistics, anchor/direction rule, pushdown, caching.

The closing class runs every CypherEval gold query through the planned
executor and the ``planner=False`` escape hatch and asserts identical rows —
the end-to-end guarantee that planning is semantics-preserving.
"""

from __future__ import annotations

import re
import threading

import pytest

from repro.cypher import CypherEngine, parse, plan_match, render_value
from repro.cypher.planner import needs_used_tracking
from repro.eval import build_cyphereval
from repro.graph import GraphStore


# ---------------------------------------------------------------------------
# Graph statistics
# ---------------------------------------------------------------------------


class TestGraphStatistics:
    def test_counts_match_store(self, small_store):
        stats = small_store.statistics()
        assert stats.node_count == small_store.node_count
        assert stats.relationship_count == small_store.relationship_count
        for label in small_store.labels():
            assert stats.label_count(label) == sum(
                1 for _ in small_store.nodes_by_label(label)
            )

    def test_index_catalog(self, small_store):
        stats = small_store.statistics()
        assert stats.has_index("AS", "asn")
        assert not stats.has_index("AS", "no_such_key")
        assert ("AS", "asn") in stats.indexes

    def test_endpoint_counts_partition_rel_type(self, small_store):
        stats = small_store.statistics()
        # Every COUNTRY edge ends at a Country node ...
        assert stats.endpoint_count("COUNTRY", "in", "Country") == stats.rel_type_count(
            "COUNTRY"
        )
        # ... but only some of them *start* at an AS: the asymmetry the
        # planner uses to avoid anchoring traversals at the Country side.
        from_as = stats.endpoint_count("COUNTRY", "out", "AS")
        assert 0 < from_as <= stats.rel_type_count("COUNTRY")
        # label=None falls back to the per-type total.
        assert stats.endpoint_count("COUNTRY", "out", None) == stats.rel_type_count(
            "COUNTRY"
        )

    def test_endpoint_counts_maintained_on_create_and_delete(self):
        store = GraphStore()
        a = store.create_node(["AS"], {"asn": 1})
        c = store.create_node(["Country"], {"country_code": "JP"})
        rel = store.create_relationship(a.node_id, "COUNTRY", c.node_id)
        stats = store.statistics()
        assert stats.endpoint_count("COUNTRY", "out", "AS") == 1
        assert stats.endpoint_count("COUNTRY", "in", "Country") == 1
        store.delete_relationship(rel.rel_id)
        stats = store.statistics()
        assert stats.endpoint_count("COUNTRY", "out", "AS") == 0
        assert stats.endpoint_count("COUNTRY", "in", "Country") == 0

    def test_version_bumps_on_mutation(self, tiny_store):
        before = tiny_store.statistics().version
        tiny_store.create_node(["AS"], {"asn": 64512})
        assert tiny_store.statistics().version > before

    def test_adjacent_relationships_see_new_relationships(self, tiny_store):
        iij = next(tiny_store.nodes_by_property("AS", "asn", 2497))
        first = tiny_store.adjacent_relationships(iij.node_id, "out", ("COUNTRY",))
        assert [rel.rel_type for rel in first] == ["COUNTRY"]
        assert tiny_store.adjacent_relationships(iij.node_id, "in", ("COUNTRY",)) == ()
        google = next(tiny_store.nodes_by_property("AS", "asn", 15169))
        tiny_store.create_relationship(google.node_id, "COUNTRY", iij.node_id)
        incoming = tiny_store.adjacent_relationships(iij.node_id, "in", ("COUNTRY",))
        assert len(incoming) == 1
        assert incoming[0].start_id == google.node_id

    def test_adjacent_relationships_rejects_bad_direction(self, tiny_store):
        iij = next(tiny_store.nodes_by_property("AS", "asn", 2497))
        with pytest.raises(ValueError):
            tiny_store.adjacent_relationships(iij.node_id, "sideways")


# ---------------------------------------------------------------------------
# Anchor choice
# ---------------------------------------------------------------------------


def _first_match_plan(engine, query):
    tree = parse(query)
    clause = tree.clauses[0]
    return plan_match(clause, engine.store.statistics())


class TestAnchorChoice:
    def test_inline_indexed_property_beats_label_scan(self, small_engine):
        plan = _first_match_plan(
            small_engine, "MATCH (a:AS {asn: 2497}) RETURN a.name"
        )
        anchor = plan.parts[0].anchor
        assert anchor.kind == "property"
        assert anchor.indexed
        assert (anchor.label, anchor.key) == ("AS", "asn")

    def test_where_equality_promoted_to_index_lookup(self, small_engine):
        plan = _first_match_plan(
            small_engine, "MATCH (a:AS) WHERE a.asn = 2497 RETURN a.name"
        )
        anchor = plan.parts[0].anchor
        assert anchor.kind == "property" and anchor.indexed
        assert "a" in plan.filters
        assert plan.filters["a"][0].kind == "eq"

    def test_where_equality_reversed_operands(self, small_engine):
        plan = _first_match_plan(
            small_engine, "MATCH (a:AS) WHERE 2497 = a.asn RETURN a.name"
        )
        assert plan.parts[0].anchor.kind == "property"

    def test_where_in_list_fans_out_index_probes(self, small_engine):
        plan = _first_match_plan(
            small_engine,
            "MATCH (a:AS) WHERE a.asn IN [2497, 15169] RETURN a.name",
        )
        anchor = plan.parts[0].anchor
        assert anchor.kind == "property-in"
        assert len(anchor.values) == 2

    def test_disjunction_is_not_pushed(self, small_engine):
        plan = _first_match_plan(
            small_engine,
            "MATCH (a:AS) WHERE a.asn = 2497 OR a.asn = 15169 RETURN a.name",
        )
        assert plan.parts[0].anchor.kind == "label"
        assert plan.filters == {}

    def test_label_scan_without_properties(self, small_engine):
        plan = _first_match_plan(small_engine, "MATCH (a:AS) RETURN count(a)")
        anchor = plan.parts[0].anchor
        assert anchor.kind == "label" and anchor.label == "AS"

    def test_all_nodes_scan_without_labels(self, small_engine):
        plan = _first_match_plan(small_engine, "MATCH (n) RETURN count(n)")
        assert plan.parts[0].anchor.kind == "all"

    def test_unindexed_property_still_preferred_over_bare_scan(self, tiny_engine):
        # tiny_store has no property indexes: the lookup routes through a
        # filtered label scan but still outranks a bare one.
        plan = _first_match_plan(
            tiny_engine, "MATCH (a:AS {asn: 2497}) RETURN a.name"
        )
        anchor = plan.parts[0].anchor
        assert anchor.kind == "property" and not anchor.indexed

    def test_bound_variable_anchors_second_match(self, small_engine):
        tree = parse(
            "MATCH (a:AS {asn: 2497}) MATCH (a)-[:COUNTRY]->(c:Country) "
            "RETURN c.country_code"
        )
        second = tree.clauses[1]
        plan = plan_match(
            second, small_engine.store.statistics(), bound=frozenset({"a"})
        )
        anchor = plan.parts[0].anchor
        assert anchor.kind == "bound" and anchor.variable == "a"


# ---------------------------------------------------------------------------
# Direction choice
# ---------------------------------------------------------------------------


class TestDirectionChoice:
    def test_country_traversal_keeps_as_anchor(self, small_engine):
        # Country is the far smaller label, but every labelled node's
        # COUNTRY edge arrives there: expanding from the Country side
        # enumerates several times more edges.  The endpoint statistics
        # must keep the anchor on the AS side.
        plan = _first_match_plan(
            small_engine,
            "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN c.country_code, count(a)",
        )
        part = plan.parts[0]
        assert not part.reverse
        assert part.anchor.label == "AS"

    def test_selective_right_end_reverses(self, small_engine):
        plan = _first_match_plan(
            small_engine,
            "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix {prefix: '203.0.113.0/24'}) "
            "RETURN a.asn",
        )
        part = plan.parts[0]
        assert part.reverse
        assert part.anchor.kind == "property"
        assert part.anchor.label == "Prefix"

    def test_single_node_part_never_reverses(self, small_engine):
        plan = _first_match_plan(small_engine, "MATCH (a:AS) RETURN a.asn")
        assert not plan.parts[0].reverse

    def test_label_tie_anchors_smaller_label_plus_edges(self, small_engine):
        # Both ends are label scans: the few IXPs plus the MEMBER_OF edges
        # arriving there cost less than every AS plus the same edges.
        plan = _first_match_plan(
            small_engine, "MATCH (a:AS)-[:MEMBER_OF]->(:IXP) RETURN count(a) AS members"
        )
        part = plan.parts[0]
        assert part.reverse
        assert part.anchor.describe() == "LabelScan(:IXP)"

    def test_label_tie_counts_first_hop_edges_not_labels_alone(self):
        # Country is the smaller label, but every labelled node's COUNTRY
        # edge arrives there: 60 probes + 60 edges beat 5 countries + 160
        # edges, so the part stays left to right.
        store = GraphStore()
        countries = [store.create_node(["Country"], {"country_code": f"C{i}"}) for i in range(5)]
        for i in range(60):
            probe = store.create_node(["AtlasProbe"], {"id": i})
            store.create_relationship(probe.node_id, "COUNTRY", countries[i % 5].node_id)
        for i in range(100):
            as_node = store.create_node(["AS"], {"asn": i})
            store.create_relationship(as_node.node_id, "COUNTRY", countries[i % 5].node_id)
        plan = _first_match_plan(
            CypherEngine(store), "MATCH (p:AtlasProbe)-[:COUNTRY]->(:Country) RETURN count(p)"
        )
        part = plan.parts[0]
        assert not part.reverse
        assert part.anchor.describe() == "LabelScan(:AtlasProbe)"

    def test_where_in_anchor_wins_exact_lookup_tie(self, small_engine):
        # Both ends are exact lookups: the tie goes left to right, onto the
        # WHERE IN probes of the AS index.
        query = (
            "MATCH (a:AS)-[r:RANK]->(:Ranking {name: 'CAIDA ASRank'}) "
            "WHERE a.asn IN [2497, 15169] RETURN a.asn AS asn ORDER BY r.rank LIMIT 1"
        )
        part = _first_match_plan(small_engine, query).parts[0]
        assert not part.reverse
        assert part.anchor.physical_operator() == ("HashLookup", ":AS.asn IN 2 values")
        _, report = small_engine.profile(query)
        assert "HashLookup(:AS.asn IN 2 values)" in report

    def test_bound_variable_beats_inline_lookup(self, small_engine):
        tree = parse(
            "MATCH (a:AS {asn: 2497}) MATCH (b:AS {asn: 15169})-[:PEERS_WITH]-(a) "
            "RETURN b.asn"
        )
        plan = plan_match(
            tree.clauses[1], small_engine.store.statistics(), bound=frozenset({"a"})
        )
        part = plan.parts[0]
        assert part.reverse
        assert part.anchor.kind == "bound" and part.anchor.variable == "a"

    def test_shortest_path_never_reverses(self, small_engine):
        plan = _first_match_plan(
            small_engine,
            "MATCH p = shortestPath((a:AS {asn: 2497})-[:PEERS_WITH*1..4]-"
            "(b:AS {asn: 15169})) RETURN length(p)",
        )
        assert not plan.parts[0].reverse


class TestUsedTracking:
    @pytest.mark.parametrize(
        "query, expected",
        [
            ("MATCH (a:AS)-[:COUNTRY]->(c) RETURN a", False),
            ("MATCH (a)-[:PEERS_WITH]->(b)-[:COUNTRY]->(c) RETURN a", False),
            ("MATCH (a)-[:PEERS_WITH]->(b)-[:PEERS_WITH]->(c) RETURN a", True),
            ("MATCH (a)-[r1]->(b)-[r2]->(c) RETURN a", True),
        ],
    )
    def test_needs_used_tracking(self, query, expected):
        part = parse(query).clauses[0].pattern.parts[0]
        assert needs_used_tracking(part) is expected

    def test_rel_uniqueness_still_enforced_when_types_repeat(self, tiny_engine):
        # IIJ-PEERS_WITH->GOOGLE must not bounce back over the same edge.
        result = tiny_engine.run(
            "MATCH (a:AS {asn: 2497})-[:PEERS_WITH]-(b)-[:PEERS_WITH]-(c) "
            "RETURN c.asn"
        )
        assert len(result) == 0


# ---------------------------------------------------------------------------
# EXPLAIN / profile surfaces
# ---------------------------------------------------------------------------


class TestExplainAndProfile:
    def test_explain_shows_anchor_and_direction(self, small_engine):
        text = small_engine.explain(
            "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix {prefix: '203.0.113.0/24'}) "
            "RETURN a.asn"
        )
        assert "anchor=(p:Prefix" in text
        assert "PropertyLookup(:Prefix.prefix) [index]" in text
        assert "expand right-to-left" in text
        assert "est≈" not in text  # the rule plans without cardinality estimates

    def test_explain_shows_pushdown(self, small_engine):
        text = small_engine.explain(
            "MATCH (a:AS) WHERE a.asn = 2497 AND a.name <> 'x' RETURN a.name"
        )
        assert "Pushdown a.asn = ..." in text
        assert "Filter (WHERE)" in text  # residual WHERE still evaluated

    def test_explain_planner_off_keeps_legacy_shape(self, small_store):
        engine = CypherEngine(small_store, planner=False)
        text = engine.explain("MATCH (a:AS {asn: 2497}) RETURN a.name")
        assert "PropertyLookup(:AS.asn)" in text
        assert "est≈" not in text

    def test_explain_planner_off_names_the_executed_lookup(self, small_store):
        # The unplanned executor looks up by the indexed key (asn), not by
        # the first inline property (name); EXPLAIN must say the same.
        engine = CypherEngine(small_store, planner=False)
        query = (
            "MATCH (a:AS {name: 'x', asn: 2497})-[:COUNTRY]->(c:Country) "
            "RETURN c.name"
        )
        text = engine.explain(query)
        assert "via PropertyLookup(:AS.asn)" in text
        assert "PropertyLookup(:AS.name)" not in text

    def test_profile_reports_operators_and_actuals(self, small_engine):
        result, report = small_engine.profile(
            "MATCH (a:AS {asn: 2497}) RETURN a.name"
        )
        assert len(result) == 1
        assert "+- HashLookup(:AS.asn) -> 1 rows (" in report
        assert "+- ProduceResults(a.name) -> 1 rows (" in report
        assert "est≈" not in report


#: EXPLAIN's access-path name -> the anchor operator PROFILE shows for it
_ANCHOR_OPERATOR = {
    "BoundVariable": "BoundAnchor",
    "PropertyLookup": "HashLookup",
    "LabelScan": "LabelScan",
    "AllNodesScan": "AllNodesScan",
}


def _explained_anchors(text):
    return sorted(
        (_ANCHOR_OPERATOR[name], detail)
        for name, detail in re.findall(r"anchor=\([^)]*\) via (\w+)(?:\(([^)]*)\))?", text)
    )


def _profiled_anchors(profile):
    found = []
    if profile["operator"] in _ANCHOR_OPERATOR.values():
        found.append((profile["operator"], profile["detail"]))
    for child in profile.get("children", ()):
        found.extend(_profiled_anchors(child))
    return sorted(found)


def _profile_lines(profile, depth=0):
    label = profile["operator"] + (f"({profile['detail']})" if profile["detail"] else "")
    lines = [f"{'  ' * depth}{label} {profile['rows']}"]
    for child in profile.get("children", ()):
        lines.extend(_profile_lines(child, depth + 1))
    return lines


@pytest.mark.parametrize("planner", [True, False], ids=["planned", "unplanned"])
class TestExplainMatchesExecution:
    """EXPLAIN reads the plan execution runs, for both planner settings."""

    @pytest.mark.parametrize(
        "query",
        [
            # the later MATCH anchors on the bound ``a``, not on ``x``'s lookup
            "MATCH (a:AS {asn: 2497}) MATCH (x:Country {country_code: 'US'})-[:COUNTRY]-(a) "
            "RETURN x",
            "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix {prefix: '203.0.113.0/24'}) RETURN a.asn",
            "MATCH (a:AS) WHERE a.asn < 3000 AND (a)-[:MEMBER_OF]->(:IXP) "
            "RETURN [(a)-[:COUNTRY]->(c:Country) | c.name] AS names",
            "MATCH (a:AS) WHERE a.asn < 3000 MERGE (a)-[:COUNTRY]->(c:Country) RETURN c.name",
        ],
    )
    def test_explained_anchor_is_the_profiled_anchor(self, tiny_store, planner, query):
        engine = CypherEngine(tiny_store, planner=planner)
        explained = _explained_anchors(engine.explain(query))
        profiled = _profiled_anchors(engine.execute(query, profile=True).profile)
        assert explained and explained == profiled

    def test_pattern_predicate_profile_shows_its_chain(self, small_store, planner):
        result = CypherEngine(small_store, planner=planner).execute(
            "MATCH (a:AS) WHERE (a)-[:MEMBER_OF]->(:IXP) RETURN count(a) AS n", profile=True
        )
        assert result.single()["n"] == 46
        assert _profile_lines(result.profile) == [
            "ProduceResults(n) 1",
            "  Aggregate(n) 1",
            "    Filter(WHERE) 46",
            "      Match(1 nodes, 0 hops) 80",
            "        LabelScan(:AS) 80",
            "          Init 1",
            "      Match(2 nodes, 1 hops) 46",
            "        Expand([:MEMBER_OF]->) 46",
            "          BoundAnchor(a) 80",
            "            Argument 80",
        ]

    def test_explain_names_pattern_expression_anchors(self, small_store, planner):
        text = CypherEngine(small_store, planner=planner).explain(
            "MATCH (a:AS) WHERE (a)-[:MEMBER_OF]->(:IXP) "
            "RETURN [(a)<-[:DEPENDS_ON]-(b:AS) | b.asn] AS deps, "
            "EXISTS { MATCH (a)-[:ORIGINATE]->(:Prefix) } AS originates"
        )
        assert (
            "  PatternPredicate pattern(2 nodes, 1 hops) anchor=(a) via BoundVariable(a), "
            "expand left-to-right"
        ) in text
        assert (
            "  PatternComprehension pattern(2 nodes, 1 hops) anchor=(a) via BoundVariable(a), "
            "expand left-to-right"
        ) in text
        assert "  Exists pattern(2 nodes, 1 hops) anchor=(a) via BoundVariable(a)" in text


# ---------------------------------------------------------------------------
# Plan caching
# ---------------------------------------------------------------------------


@pytest.fixture()
def diamond_store():
    """A tiny hand-built graph with fan-out, a self-loop and parallel edges.

        a --P--> b --P--> d        a --P--> c --P--> d
        a --P--> b   (parallel)    d --P--> d (self-loop)
        b --C--> x (cross-typed)
    """
    store = GraphStore()
    a = store.create_node(["AS"], {"asn": 1})
    b = store.create_node(["AS"], {"asn": 2})
    c = store.create_node(["AS"], {"asn": 3})
    d = store.create_node(["AS", "Tier1"], {"asn": 4})
    x = store.create_node(["Country"], {"country_code": "GR"})
    store.create_relationship(a.node_id, "PEERS_WITH", b.node_id)
    store.create_relationship(a.node_id, "PEERS_WITH", b.node_id)  # parallel
    store.create_relationship(a.node_id, "PEERS_WITH", c.node_id)
    store.create_relationship(b.node_id, "PEERS_WITH", d.node_id)
    store.create_relationship(c.node_id, "PEERS_WITH", d.node_id)
    store.create_relationship(d.node_id, "PEERS_WITH", d.node_id)  # self-loop
    store.create_relationship(b.node_id, "COUNTRY", x.node_id)
    return store


class TestPlanCaching:
    def test_ast_cache_is_bounded(self, tiny_store):
        engine = CypherEngine(tiny_store, cache_size=8)
        for asn in range(32):
            engine.run(f"MATCH (a:AS {{asn: {asn}}}) RETURN a.name")
        assert len(engine._entries) <= 8

    def test_plans_refresh_after_mutation(self, tiny_store):
        engine = CypherEngine(tiny_store)
        query = "MATCH (a:AS) RETURN count(a) AS n"
        assert engine.run(query).single()["n"] == 2
        tiny_store.create_node(["AS"], {"asn": 64512})
        # The cached plan was built for the old statistics version; the
        # engine must replan (and, more importantly, still see the node).
        assert engine.run(query).single()["n"] == 3

    def test_queries_see_mutations_immediately(self, diamond_store):
        engine = CypherEngine(diamond_store)
        count = "MATCH (a:AS) RETURN count(a) AS n"
        base = engine.run(count).single()["n"]
        diamond_store.create_node(["AS"], {"asn": 123})
        assert engine.run(count).single()["n"] == base + 1
        node = diamond_store.create_node(["AS"], {"asn": 124})
        peer = next(iter(diamond_store.nodes_by_label("AS")))
        diamond_store.create_relationship(node.node_id, "PEERS_WITH", peer.node_id)
        two_hop = "MATCH (a:AS {asn: 124})-[:PEERS_WITH]-(b:AS) RETURN count(b) AS n"
        assert engine.run(two_hop).single()["n"] == 1

    def test_threaded_readers_survive_mutations(self, diamond_store):
        """Readers race a writer: every result must be a count the store
        held at some point, with no errors from replanning mid-race."""
        engine = CypherEngine(diamond_store)
        query = "MATCH (a:AS)-[:PEERS_WITH]-(b:AS) RETURN count(*) AS n"
        errors: list[Exception] = []
        observed: list[int] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    observed.append(engine.run(query).single()["n"])
                except Exception as exc:  # pragma: no cover - the failure mode
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        anchor = next(iter(diamond_store.nodes_by_label("AS"))).node_id
        for i in range(30):
            node = diamond_store.create_node(["AS"], {"asn": 1000 + i})
            diamond_store.create_relationship(node.node_id, "PEERS_WITH", anchor)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors, errors
        assert observed
        assert max(observed) <= engine.run(query).single()["n"]


# ---------------------------------------------------------------------------
# Planner on/off equivalence over the full CypherEval gold set
# ---------------------------------------------------------------------------

_EQUIVALENCE_SHARDS = 7


@pytest.fixture(scope="module")
def gold_questions(small_dataset):
    return build_cyphereval(small_dataset, seed=7, per_template=9)


@pytest.fixture(scope="module")
def engine_pair(small_store):
    return CypherEngine(small_store), CypherEngine(small_store, planner=False)


def _comparable(result):
    """Rows as tuples of rendered values (hashable, sortable, readable)."""
    return [
        tuple(render_value(value) for value in record.values())
        for record in result.records
    ]


def _assert_equivalent(planned_engine, unplanned_engine, query):
    """Same keys and rows; row order must match only under ORDER BY."""
    planned = planned_engine.run(query)
    unplanned = unplanned_engine.run(query)
    assert planned.keys == unplanned.keys, query
    planned_rows = _comparable(planned)
    unplanned_rows = _comparable(unplanned)
    if "ORDER BY" in query.upper():
        assert planned_rows == unplanned_rows, query
    else:
        assert sorted(planned_rows) == sorted(unplanned_rows), query


class TestCypherEvalEquivalence:
    @pytest.mark.parametrize("shard", range(_EQUIVALENCE_SHARDS))
    def test_gold_queries_identical_rows(self, gold_questions, engine_pair, shard):
        planned_engine, unplanned_engine = engine_pair
        questions = gold_questions[shard::_EQUIVALENCE_SHARDS]
        assert questions, "empty shard — CypherEval generation regressed"
        for question in questions:
            _assert_equivalent(planned_engine, unplanned_engine, question.gold_cypher)

    @pytest.mark.parametrize("shard", [0, 2])
    def test_profiled_runs_stay_identical(self, gold_questions, engine_pair, shard):
        """PROFILE times every operator; the rows must not change."""
        planned_engine, _ = engine_pair
        for question in gold_questions[shard::_EQUIVALENCE_SHARDS]:
            query = question.gold_cypher
            plain = _comparable(planned_engine.run(query))
            profiled = planned_engine.execute(query, profile=True)
            assert _comparable(profiled) == plain, query


class TestEdgeTopologies:
    """Planned vs ``planner=False`` on graph shapes the gold set never has."""

    QUERIES = [
        "MATCH (a:AS)-[:PEERS_WITH]->(b:AS) RETURN a.asn AS x, b.asn AS y ORDER BY x, y",
        "MATCH (a:AS)-[:PEERS_WITH]-(b:AS)-[:COUNTRY]->(c:Country) "
        "RETURN DISTINCT c.country_code AS cc",
        "MATCH (a:AS)-[:PEERS_WITH*1..3]->(b:AS) RETURN count(DISTINCT b) AS n",
        "MATCH (a:AS) RETURN count(*) AS n",
    ]

    def _assert_identical(self, store):
        planned = CypherEngine(store)
        unplanned = CypherEngine(store, planner=False)
        for query in self.QUERIES:
            _assert_equivalent(planned, unplanned, query)

    def test_empty_graph(self):
        self._assert_identical(GraphStore())

    def test_self_loops_and_parallel_edges(self, diamond_store):
        self._assert_identical(diamond_store)

    def test_isolated_nodes(self):
        store = GraphStore()
        for asn in range(5):
            store.create_node(["AS"], {"asn": asn})
        self._assert_identical(store)
