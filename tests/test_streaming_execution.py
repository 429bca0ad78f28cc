"""Streaming (Volcano-style) execution layer: equivalence and guarantees.

The physical operator tree must be invisible at the result level — rows,
ordering, tie-breaks and counters bit-identical between planner-on,
planner-off and the expected values — while delivering the streaming
guarantees the layer exists for: LIMIT-bounded intermediate rows, a
row-budget guard (``ResourceExhausted``), cooperative deadline
cancellation (``CypherDeadlineExceeded``), and a complete per-operator
PROFILE tree that flows into pipeline diagnostics and metrics.
"""

from __future__ import annotations

import time

import pytest

from repro.cypher import (
    CypherDeadlineExceeded,
    CypherEngine,
    CypherSyntaxError,
    ResourceExhausted,
)
from repro.core.prompts import answer_prompt, text2cypher_prompt
from repro.cypher.operators import max_operator_rows
from repro.graph import GraphStore
from repro.iyp import IYPConfig, generate_iyp
from repro.llm.base import LLM, CompletionResponse
from repro.rag.errors import DeadlineExceeded
from repro.rag.errors import ResourceExhausted as RagResourceExhausted
from repro.rag.observer import PipelineObserver
from repro.rag.pipeline import RetrieverQueryEngine
from repro.rag.synthesizer import ResponseSynthesizer
from repro.rag.text2cypher_retriever import TextToCypherRetriever, derived_row_budget
from repro.serving import Deadline


def build_chain_store():
    """AS chain with ties, nulls and a country fan-in.

    20 AS nodes ``asn=1..20``; ``tier`` cycles 0,1,2 (ties for ORDER BY);
    asn 7 and 14 have no ``tier`` (null sort band); a DEPENDS_ON chain
    1→2→...→20 for var-length paths; all even ASes -COUNTRY-> (JP),
    odd -COUNTRY-> (US) except asn 13 which has no country (OPTIONAL MATCH).
    """
    store = GraphStore()
    countries = {
        "JP": store.create_node(["Country"], {"country_code": "JP"}),
        "US": store.create_node(["Country"], {"country_code": "US"}),
    }
    nodes = []
    for asn in range(1, 21):
        properties = {"asn": asn}
        if asn not in (7, 14):
            properties["tier"] = asn % 3
        nodes.append(store.create_node(["AS"], properties))
    for left, right in zip(nodes, nodes[1:]):
        store.create_relationship(left.node_id, "DEPENDS_ON", right.node_id)
    for asn, node in enumerate(nodes, start=1):
        if asn == 13:
            continue
        country = countries["JP" if asn % 2 == 0 else "US"]
        store.create_relationship(node.node_id, "COUNTRY", country.node_id)
    store.create_property_index("AS", "asn")
    return store


@pytest.fixture()
def chain_store():
    return build_chain_store()


def both_engines(store):
    return CypherEngine(store), CypherEngine(store, planner=False)


def assert_equivalent(store, query, expected=None, **params):
    """Planner-on and planner-off must produce bit-identical result sets."""
    planned, unplanned = both_engines(store)
    a = planned.run(query, **params)
    b = unplanned.run(query, **params)
    assert a.keys == b.keys
    assert a.to_dicts() == b.to_dicts()
    if expected is not None:
        assert a.to_dicts() == expected
    return a


class TestGoldenEquivalence:
    def test_order_by_tie_groups(self, chain_store):
        result = assert_equivalent(
            chain_store,
            "MATCH (a:AS) WHERE a.tier IS NOT NULL "
            "RETURN a.tier AS tier, a.asn AS asn ORDER BY tier LIMIT 8",
        )
        # Canonical tie-break: within each tier, rows stay asn-ordered.
        assert [row["asn"] for row in result.to_dicts()] == [3, 6, 9, 12, 15, 18, 1, 4]

    def test_order_by_desc_skip_and_null_keys(self, chain_store):
        result = assert_equivalent(
            chain_store,
            "MATCH (a:AS) RETURN a.tier AS tier, a.asn AS asn "
            "ORDER BY tier DESC SKIP 2 LIMIT 6",
        )
        # Nulls sort last ascending => first descending; SKIP 2 drops them.
        assert all(row["tier"] == 2 for row in result.to_dicts())

    def test_union_dedup_and_union_all(self, chain_store):
        deduped = assert_equivalent(
            chain_store,
            "MATCH (a:AS) WHERE a.asn <= 3 RETURN a.asn AS n "
            "UNION MATCH (a:AS) WHERE a.asn >= 2 AND a.asn <= 4 RETURN a.asn AS n",
        )
        assert sorted(row["n"] for row in deduped.to_dicts()) == [1, 2, 3, 4]
        doubled = assert_equivalent(
            chain_store,
            "MATCH (a:AS) WHERE a.asn <= 3 RETURN a.asn AS n "
            "UNION ALL MATCH (a:AS) WHERE a.asn <= 3 RETURN a.asn AS n",
        )
        assert len(doubled) == 6

    def test_var_length_paths(self, chain_store):
        assert_equivalent(
            chain_store,
            "MATCH (a:AS {asn: 1})-[:DEPENDS_ON*1..4]->(b:AS) "
            "RETURN b.asn AS asn ORDER BY asn",
            expected=[{"asn": 2}, {"asn": 3}, {"asn": 4}, {"asn": 5}],
        )

    def test_named_path_variable(self, chain_store):
        result = assert_equivalent(
            chain_store,
            "MATCH p = (a:AS {asn: 1})-[:DEPENDS_ON*2..2]->(b:AS) "
            "RETURN length(p) AS hops, b.asn AS asn",
            expected=[{"hops": 2, "asn": 3}],
        )
        assert result.single()["hops"] == 2

    def test_optional_match_null_padding(self, chain_store):
        result = assert_equivalent(
            chain_store,
            "MATCH (a:AS) WHERE a.asn IN [12, 13] "
            "OPTIONAL MATCH (a)-[:COUNTRY]->(c:Country) "
            "RETURN a.asn AS asn, c.country_code AS cc ORDER BY asn",
            expected=[{"asn": 12, "cc": "JP"}, {"asn": 13, "cc": None}],
        )
        assert result.to_dicts()[1]["cc"] is None

    def test_return_star(self, chain_store):
        result = assert_equivalent(
            chain_store,
            "MATCH (a:AS {asn: 5})-[:COUNTRY]->(c:Country) RETURN *",
        )
        assert result.keys == ["a", "c"]

    def test_aggregation_with_grouping(self, chain_store):
        assert_equivalent(
            chain_store,
            "MATCH (a:AS)-[:COUNTRY]->(c:Country) "
            "RETURN c.country_code AS cc, count(a) AS n ORDER BY cc",
            expected=[{"cc": "JP", "n": 10}, {"cc": "US", "n": 9}],
        )

    def test_with_where_distinct_pipeline(self, chain_store):
        assert_equivalent(
            chain_store,
            "MATCH (a:AS) WITH a.tier AS tier WHERE tier IS NOT NULL "
            "RETURN DISTINCT tier ORDER BY tier",
            expected=[{"tier": 0}, {"tier": 1}, {"tier": 2}],
        )


class TestEarlyTermination:
    def test_limit_bounds_intermediate_rows(self, chain_store):
        engine = CypherEngine(chain_store)
        result = engine.execute("MATCH (a:AS) RETURN a LIMIT 3", profile=True)
        assert len(result) == 3
        # No operator ever held more rows than the LIMIT needed — the scan
        # stopped after 3 of the 20 AS nodes.
        assert max_operator_rows(result.profile) <= 3

    def test_limit_zero_opens_nothing(self, chain_store):
        engine = CypherEngine(chain_store)
        result = engine.execute("MATCH (a:AS) RETURN a LIMIT 0", profile=True)
        assert len(result) == 0
        assert max_operator_rows(result.profile) <= 1  # only the Init row

    def test_limit_zero_never_pulls_an_aggregate(self, chain_store):
        # Blocking operators drain their input on the first pull, and
        # LIMIT 0 never pulls: the scan under the count stays unread.
        engine = CypherEngine(chain_store)
        result = engine.execute(
            "MATCH (a:AS) RETURN count(a) AS n LIMIT 0", profile=True, row_budget=0
        )
        assert len(result) == 0
        assert max_operator_rows(result.profile) == 0

    @pytest.mark.parametrize("planner", [True, False])
    @pytest.mark.parametrize(
        "query, created",
        [
            ("CREATE (n:T) RETURN count(n) AS c LIMIT 0", 1),
            ("CREATE (n:T) RETURN n LIMIT 0", 1),
            ("CREATE (n:T) RETURN n ORDER BY n.x LIMIT 0", 1),
            ("CREATE (n:T) WITH n LIMIT 0 RETURN n", 1),
            ("UNWIND [1, 2, 3] AS i CREATE (:T {i: i}) RETURN DISTINCT i LIMIT 0", 3),
            ("CREATE (n:T) RETURN count(n) AS c SKIP 1 LIMIT 0", 1),
        ],
    )
    def test_limit_zero_still_applies_writes(self, planner, query, created):
        # LIMIT never stops an updating clause's side effects: a LIMIT 0
        # above one still pulls its input through.
        engine = CypherEngine(GraphStore(), planner=planner)
        assert len(engine.execute(query)) == 0
        count = engine.execute("MATCH (n:T) RETURN count(n) AS c").single()["c"]
        assert count == created

    def test_limit_zero_below_a_write_is_not_exhaustive(self, chain_store):
        # The write runs above the LIMIT: nothing below needs pulling.
        engine = CypherEngine(chain_store)
        result = engine.execute(
            "MATCH (a:AS) WITH a LIMIT 0 CREATE (:T) RETURN count(*) AS c",
            profile=True,
        )
        assert result.single()["c"] == 0
        assert max_operator_rows(result.profile) <= 1


class TestRowBudget:
    def test_budget_overrun_raises_resource_exhausted(self, chain_store):
        engine = CypherEngine(chain_store)
        with pytest.raises(ResourceExhausted, match=r"row budget \(10 rows\)"):
            engine.execute(
                "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN a.asn, c", row_budget=10
            )

    def test_query_under_budget_succeeds(self, chain_store):
        engine = CypherEngine(chain_store)
        result = engine.execute("MATCH (a:AS {asn: 1}) RETURN a.asn AS n", row_budget=10)
        assert result.single()["n"] == 1

    def test_per_call_budget_overrides_engine_default(self, chain_store):
        engine = CypherEngine(chain_store)
        with pytest.raises(ResourceExhausted):
            engine.execute("MATCH (a:AS) RETURN a.asn", row_budget=5)
        # ... and a call without a budget stays unbounded.
        assert len(engine.run("MATCH (a:AS) RETURN a.asn")) == 20


#: Execution contract per query shape: the smallest row budget that passes
#: with the planner on and off, and the planned PROFILE tree as
#: ``operator(detail) rows`` lines.  Any change to how operators count or
#: charge rows shows up here.
_CONTRACT = {
    "scan_expand_return": (
        "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN a.asn AS asn, "
        "c.country_code AS cc",
        (79, 97),
        [
            "ProduceResults(asn, cc) 19",
            "  Project(asn, cc) 19",
            "    Match(2 nodes, 1 hops) 19",
            "      Expand([:COUNTRY]<-) 19",
            "        LabelScan(:Country) 2",
            "          Init 1",
        ],
    ),
    "order_by": (
        "MATCH (a:AS) RETURN a.asn AS asn, a.tier AS tier ORDER BY tier, asn",
        (101, 101),
        [
            "ProduceResults(asn, tier) 20",
            "  Sort(2 keys) 20",
            "    Project(asn, tier) 20",
            "      Match(1 nodes, 0 hops) 20",
            "        LabelScan(:AS) 20",
            "          Init 1",
        ],
    ),
    "order_by_limit": (
        "MATCH (a:AS) RETURN a.asn AS asn ORDER BY a.tier DESC LIMIT 4",
        (73, 73),
        [
            "ProduceResults(asn) 4",
            "  Limit(4) 4",
            "    TopK(1 keys, top 4) 4",
            "      Project(asn) 20",
            "        Match(1 nodes, 0 hops) 20",
            "          LabelScan(:AS) 20",
            "            Init 1",
        ],
    ),
    "skip": (
        "MATCH (a:AS) RETURN a.asn AS asn SKIP 15",
        (71, 71),
        [
            "ProduceResults(asn) 5",
            "  Skip(15) 5",
            "    Project(asn) 20",
            "      Match(1 nodes, 0 hops) 20",
            "        LabelScan(:AS) 20",
            "          Init 1",
        ],
    ),
    "global_aggregate": (
        "MATCH (a:AS) RETURN count(a) AS n, max(a.tier) AS top",
        (43, 43),
        [
            "ProduceResults(n, top) 1",
            "  Aggregate(n, top) 1",
            "    Match(1 nodes, 0 hops) 20",
            "      LabelScan(:AS) 20",
            "        Init 1",
        ],
    ),
    "grouped_aggregate": (
        "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN c.country_code AS cc, "
        "count(a) AS n",
        (45, 63),
        [
            "ProduceResults(cc, n) 2",
            "  Aggregate(cc, n) 2",
            "    Match(2 nodes, 1 hops) 19",
            "      Expand([:COUNTRY]<-) 19",
            "        LabelScan(:Country) 2",
            "          Init 1",
        ],
    ),
    "distinct": (
        "MATCH (a:AS) RETURN DISTINCT a.tier AS tier",
        (69, 69),
        [
            "ProduceResults(tier) 4",
            "  Distinct 4",
            "    Project(tier) 20",
            "      Match(1 nodes, 0 hops) 20",
            "        LabelScan(:AS) 20",
            "          Init 1",
        ],
    ),
    "optional_match": (
        "MATCH (a:AS) WHERE a.asn >= 11 AND a.asn <= 14 OPTIONAL MATCH "
        "(a)-[:COUNTRY]->(c:Country) RETURN a.asn AS asn, c.country_code AS cc",
        (55, 71),
        [
            "ProduceResults(asn, cc) 4",
            "  Project(asn, cc) 4",
            "    OptionalMatch 4",
            "      Filter(WHERE) 4",
            "        Match(1 nodes, 0 hops) 4",
            "          LabelScan(:AS, pushed a.asn >=, a.asn <=) 4",
            "            Init 1",
            "      Match(2 nodes, 1 hops) 3",
            "        Expand([:COUNTRY]->) 3",
            "          BoundAnchor(a) 4",
            "            Argument 4",
        ],
    ),
    "union": (
        "MATCH (a:AS) WHERE a.asn <= 3 RETURN a.asn AS n UNION MATCH (a:AS) "
        "WHERE a.asn >= 2 AND a.asn <= 4 RETURN a.asn AS n",
        (70, 104),
        [
            "Union 4",
            "  ProduceResults(n) 3",
            "    Project(n) 3",
            "      Filter(WHERE) 3",
            "        Match(1 nodes, 0 hops) 3",
            "          LabelScan(:AS, pushed a.asn <=) 3",
            "            Init 1",
            "  ProduceResults(n) 3",
            "    Project(n) 3",
            "      Filter(WHERE) 3",
            "        Match(1 nodes, 0 hops) 3",
            "          LabelScan(:AS, pushed a.asn >=, a.asn <=) 3",
            "            Init 1",
        ],
    ),
    "union_all": (
        "MATCH (a:AS) WHERE a.asn <= 3 RETURN a.asn AS n UNION ALL MATCH (a:AS) "
        "WHERE a.asn <= 2 RETURN a.asn AS n",
        (67, 102),
        [
            "Union(ALL) 5",
            "  ProduceResults(n) 3",
            "    Project(n) 3",
            "      Filter(WHERE) 3",
            "        Match(1 nodes, 0 hops) 3",
            "          LabelScan(:AS, pushed a.asn <=) 3",
            "            Init 1",
            "  ProduceResults(n) 2",
            "    Project(n) 2",
            "      Filter(WHERE) 2",
            "        Match(1 nodes, 0 hops) 2",
            "          LabelScan(:AS, pushed a.asn <=) 2",
            "            Init 1",
        ],
    ),
    "with_where": (
        "MATCH (a:AS)-[:COUNTRY]->(c:Country) WITH c, count(a) AS n WHERE n > 9 "
        "RETURN c.country_code AS cc, n",
        (48, 66),
        [
            "ProduceResults(cc, n) 1",
            "  Project(cc, n) 1",
            "    Filter(WHERE) 1",
            "      Rows 2",
            "        Aggregate(c, n) 2",
            "          Match(2 nodes, 1 hops) 19",
            "            Expand([:COUNTRY]<-) 19",
            "              LabelScan(:Country) 2",
            "                Init 1",
        ],
    ),
    "unwind": (
        "UNWIND [1, 2, 3] AS x MATCH (a:AS {asn: x})-[:DEPENDS_ON]->(b:AS) "
        "RETURN x, b.asn AS b",
        (19, 19),
        [
            "ProduceResults(x, b) 3",
            "  Project(x, b) 3",
            "    Match(2 nodes, 1 hops) 3",
            "      Expand([:DEPENDS_ON]->) 3",
            "        HashLookup(:AS.asn) 3",
            "          Unwind(x) 3",
            "            Init 1",
        ],
    ),
    "var_length": (
        "MATCH (a:AS {asn: 1})-[:DEPENDS_ON*1..4]->(b:AS) RETURN b.asn AS asn",
        (18, 18),
        [
            "ProduceResults(asn) 4",
            "  Project(asn) 4",
            "    Match(2 nodes, 4 hops) 4",
            "      VarLengthExpand([:DEPENDS_ON]->) 4",
            "        HashLookup(:AS.asn) 1",
            "          Init 1",
        ],
    ),
    "shortest_path": (
        "MATCH (a:AS {asn: 2}), (b:AS {asn: 6}) MATCH p = "
        "shortestPath((a)-[:DEPENDS_ON*]->(b)) RETURN length(p) AS hops",
        (13, 13),
        [
            "ProduceResults(hops) 1",
            "  Project(hops) 1",
            "    ShortestPath(shortestPath, BoundAnchor(a) to BoundAnchor(b)) 1",
            "      Match(1 nodes, 0 hops) 1",
            "        HashLookup(:AS.asn) 1",
            "          Match(1 nodes, 0 hops) 1",
            "            HashLookup(:AS.asn) 1",
            "              Init 1",
        ],
    ),
    "create": (
        "MATCH (a:AS) WHERE a.asn <= 2 CREATE (a)-[:TAGGED]->(t:Tag {asn: "
        "a.asn}) RETURN t.asn AS asn",
        (31, 49),
        [
            "ProduceResults(asn) 2",
            "  Project(asn) 2",
            "    Create 2",
            "      Filter(WHERE) 2",
            "        Match(1 nodes, 0 hops) 2",
            "          LabelScan(:AS, pushed a.asn <=) 2",
            "            Init 1",
        ],
    ),
}


def _profile_lines(profile, depth=0):
    label = profile["operator"]
    if profile["detail"]:
        label += f"({profile['detail']})"
    lines = [f"{'  ' * depth}{label} {profile['rows']}"]
    for child in profile.get("children", ()):
        lines.extend(_profile_lines(child, depth + 1))
    return lines


class TestExecutionContract:
    """Row budgets and PROFILE trees pinned per shape (fresh store per run,
    so the CREATE shape starts from the same graph every time)."""

    @pytest.mark.parametrize("shape", sorted(_CONTRACT))
    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "unplanned"])
    def test_smallest_passing_row_budget(self, shape, planner):
        query, budgets, _ = _CONTRACT[shape]
        budget = budgets[0] if planner else budgets[1]
        CypherEngine(build_chain_store(), planner=planner).execute(query, row_budget=budget)
        with pytest.raises(ResourceExhausted):
            CypherEngine(build_chain_store(), planner=planner).execute(
                query, row_budget=budget - 1
            )

    @pytest.mark.parametrize("shape", sorted(_CONTRACT))
    def test_profile_tree(self, shape):
        query, _, expected = _CONTRACT[shape]
        result = CypherEngine(build_chain_store()).execute(query, profile=True)
        assert _profile_lines(result.profile) == expected


class _SteppingClock:
    """Monotonic fake clock: advances ``step`` seconds per reading."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestDeadlineCancellation:
    def test_expired_deadline_aborts_before_execution(self, chain_store):
        engine = CypherEngine(chain_store)
        dead = Deadline(1.0, clock=_SteppingClock(1.0))  # expired on first read
        with pytest.raises(CypherDeadlineExceeded):
            engine.execute("MATCH (a:AS) RETURN a.asn", deadline=dead)

    def test_deadline_checked_mid_execution(self):
        # Budget covers the upfront check but expires during the row loop:
        # the engine must notice between next() calls, not run to the end.
        store = GraphStore()
        engine = CypherEngine(store)
        deadline = Deadline(5.0, clock=_SteppingClock(0.001))
        with pytest.raises(CypherDeadlineExceeded, match="intermediate rows"):
            engine.execute(
                "UNWIND range(1, 100000) AS x RETURN count(x)", deadline=deadline
            )

    def test_unexpired_deadline_is_harmless(self, chain_store):
        engine = CypherEngine(chain_store)
        deadline = Deadline.start(60_000.0)
        result = engine.execute("MATCH (a:AS) RETURN count(a) AS n", deadline=deadline)
        assert result.single()["n"] == 20


class TestAggregateDeadline:
    """An aggregate evaluates its drained rows uncharged, and reads the
    deadline every 256 of them: grouping keys and aggregated values alike."""

    #: 5,120 rows: the UNWIND's charges read the clock 20 times, the
    #: aggregate's evaluation 20 more per pass over the rows
    QUERIES = {
        "global": ("UNWIND range(1, 5120) AS x "
                   "RETURN sum(size([y IN range(1, 20) WHERE y > x])) AS n"),
        "grouped": "UNWIND range(1, 5120) AS x RETURN x % 3 AS k, sum(x) AS s",
    }

    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_deadline_read_while_evaluating(self, shape):
        query = self.QUERIES[shape]
        clock = _SteppingClock(0.001)
        CypherEngine(GraphStore()).execute(query, deadline=Deadline(1e6, clock=clock))
        # construction, the run's first check, 20 charge reads, then at least
        # one read per 256 evaluated rows
        assert clock.now >= 0.001 * (22 + 20)
        # A budget the charges alone never exhaust runs out in the aggregate.
        with pytest.raises(CypherDeadlineExceeded):
            CypherEngine(GraphStore()).execute(
                query, deadline=Deadline(30.0, clock=_SteppingClock(0.001)))

    def test_charges_unchanged_by_deadline(self):
        query = self.QUERIES["grouped"]
        free = CypherEngine(GraphStore()).execute(query, profile=True)
        timed = CypherEngine(GraphStore()).execute(
            query, profile=True, deadline=Deadline.start(60_000.0))
        assert _profile_lines(free.profile) == _profile_lines(timed.profile)
        assert [record.values() for record in free.records] == [
            record.values() for record in timed.records]
        # every operator charges the rows it emits; the aggregate's reads charge nothing
        budget = sum(int(line.rsplit(" ", 1)[1]) for line in _profile_lines(free.profile))
        for deadline in (None, Deadline.start(60_000.0)):
            CypherEngine(GraphStore()).execute(query, row_budget=budget, deadline=deadline)
            with pytest.raises(ResourceExhausted):
                CypherEngine(GraphStore()).execute(
                    query, row_budget=budget - 1, deadline=deadline)

    def test_expensive_global_aggregate_stops_at_deadline(self):
        """Without deadline reads in the aggregate this ran 18 s."""
        query = ("UNWIND range(1, 7000) AS x "
                 "RETURN sum(size([y IN range(1, 1000) WHERE y > x])) AS n")
        started = time.perf_counter()
        with pytest.raises(CypherDeadlineExceeded):
            CypherEngine(GraphStore()).execute(query, deadline=Deadline.start(200.0))
        assert time.perf_counter() - started < 3.0


class TestSortDeadline:
    """Sort and TopK evaluate their drained entries' ORDER BY keys
    uncharged, and read the deadline every 256 of them."""

    @staticmethod
    def _clock_reads(query: str) -> float:
        clock = _SteppingClock(0.001)
        CypherEngine(GraphStore()).execute(query, deadline=Deadline(1e6, clock=clock))
        return clock.now

    @pytest.mark.parametrize("limit", ["", " LIMIT 1"], ids=["sort", "topk"])
    def test_deadline_read_while_evaluating_keys(self, limit):
        # ``ORDER BY x`` reuses the projected value; ``ORDER BY -x`` evaluates
        # 5,120 keys.  The charges, and so their clock reads, are the same.
        unwind = "UNWIND range(1, 5120) AS x RETURN x "
        reused = self._clock_reads(unwind + "ORDER BY x" + limit)
        evaluated = self._clock_reads(unwind + "ORDER BY -x" + limit)
        assert evaluated - reused >= 0.001 * 20 - 1e-9

    def test_charges_unchanged_by_deadline(self):
        query = "UNWIND range(1, 600) AS x RETURN x ORDER BY x % 7, -x LIMIT 50"
        free = CypherEngine(GraphStore()).execute(query, profile=True)
        timed = CypherEngine(GraphStore()).execute(
            query, profile=True, deadline=Deadline.start(60_000.0))
        assert _profile_lines(free.profile) == _profile_lines(timed.profile)
        assert [record.values() for record in free.records] == [
            record.values() for record in timed.records]

    def test_expensive_order_by_stops_at_deadline(self):
        """Without deadline reads in the sort this ran 7 s to completion."""
        query = ("UNWIND range(1, 3000) AS x RETURN x "
                 "ORDER BY size([y IN range(1, 1000) WHERE y > x]) LIMIT 1")
        started = time.perf_counter()
        with pytest.raises(CypherDeadlineExceeded):
            CypherEngine(GraphStore()).execute(query, deadline=Deadline.start(200.0))
        assert time.perf_counter() - started < 3.0


def _clique(size: int, isolated: bool = False) -> GraphStore:
    """``size`` nodes with an X edge between every pair, plus an unreachable
    ``:Z`` node when ``isolated``."""
    store = GraphStore()
    nodes = [store.create_node(["N"], {"i": i}) for i in range(size)]
    for index, left in enumerate(nodes):
        for right in nodes[index + 1:]:
            store.create_relationship(left.node_id, "X", right.node_id)
    if isolated:
        store.create_node(["Z"], {})
    return store


class TestWalkDeadline:
    """Variable-length walks and shortest-path searches charge every
    relationship they examine, also when no end node ever binds, so the row
    budget and the deadline both bound them."""

    @pytest.mark.parametrize("size, query", [
        (7, "MATCH (a:N {i: 0})-[:X*1..4]-(b:N {i: -1}) RETURN count(b) AS n"),
        (30, "MATCH p = shortestPath((a:N)-[:X*]-(b:Z)) RETURN count(p) AS n"),
        (30, "MATCH p = allShortestPaths((a:N)-[:X*]-(b:Z)) RETURN count(p) AS n"),
    ])
    def test_deadline_read_while_nothing_binds(self, size, query):
        store = _clique(size, isolated=True)
        assert CypherEngine(store).run(query).single()["n"] == 0
        with pytest.raises(ResourceExhausted):
            CypherEngine(store).execute(query, row_budget=100)
        # One clock reading per 256 examined relationships.
        deadline = Deadline(3.0, clock=_SteppingClock(0.001))
        with pytest.raises(CypherDeadlineExceeded):
            CypherEngine(store).execute(query, deadline=deadline)

    def test_rejected_walk_stops_at_deadline_on_medium_graph(self):
        """Without deadline reads in the walk this ran 3.5 s to its one row.
        The whole walk now takes about 1 s on a 2-vCPU VM, so the deadline is
        a quarter of that: a 1 s deadline let it finish in some runs."""
        store = generate_iyp(IYPConfig.medium(seed=42)).store
        query = ("MATCH (a:AS {asn: 2497})-[:PEERS_WITH*1..7]-(b:Country) "
                 "RETURN count(b)")
        started = time.perf_counter()
        with pytest.raises(CypherDeadlineExceeded):
            CypherEngine(store).execute(query, deadline=Deadline.start(250.0))
        assert time.perf_counter() - started < 0.35


def _star(size: int) -> GraphStore:
    """``size`` unindexed ``:P`` nodes (``k`` = 0..size-1), each with an
    ``X`` edge from one ``:H`` hub."""
    store = GraphStore()
    hub = store.create_node(["H"], {})
    for k in range(size):
        node = store.create_node(["P"], {"k": k})
        store.create_relationship(hub.node_id, "X", node.node_id)
    return store


class TestExaminedWorkBudget:
    """Every pattern operator charges the candidates and relationships it
    examines, so a MATCH that binds little or nothing still meets the derived
    budget (no deadline) and reads the deadline."""

    def test_rejecting_walk_on_medium_graph_exhausts_the_budget(self):
        """Without charged steps this ran about 4 s to its one row."""
        store = generate_iyp(IYPConfig.medium(seed=42)).store
        query = ("MATCH (a:AS {asn: 2497})-[:PEERS_WITH*1..7]-(b:Country) "
                 "RETURN count(b)")
        started = time.perf_counter()
        with pytest.raises(ResourceExhausted):
            CypherEngine(store).execute(query, row_budget=derived_row_budget(store))
        assert time.perf_counter() - started < 1.1

    @pytest.mark.parametrize("query", [
        "MATCH p = shortestPath((a)-[*]-(b)) RETURN count(p) AS n",
        "MATCH p = allShortestPaths((a)-[*]-(b)) RETURN count(p) AS n",
    ])
    def test_all_pairs_shortest_paths_exhaust_the_budget(self, query):
        store = _clique(40)
        with pytest.raises(ResourceExhausted):
            CypherEngine(store).execute(query, row_budget=derived_row_budget(store))

    @pytest.mark.parametrize("key", ["-1", "2000"], ids=["label_scan", "hash_lookup"])
    def test_cartesian_unindexed_lookup_exhausts_the_budget(self, key):
        """The lookup scans its label per row: every candidate is charged."""
        store = _star(2000)
        query = f"MATCH (a:P), (b:P {{k: {key}}}) RETURN count(*) AS n"
        with pytest.raises(ResourceExhausted):
            CypherEngine(store).execute(query, row_budget=derived_row_budget(store))

    @pytest.mark.parametrize("query", [
        "MATCH (a:P) WHERE a.k < 0 RETURN count(a) AS n",
        "MATCH (:H)-[:X]->(b:P) WHERE b.k < 0 RETURN count(b) AS n",
        "MATCH (:H)-[:X]->(b:P {k: -1}) RETURN count(b) AS n",
    ], ids=["anchor", "expand", "inline"])
    def test_deadline_read_while_every_candidate_is_rejected(self, query):
        store = _star(2000)
        assert CypherEngine(store).run(query).single()["n"] == 0
        # One clock reading per 256 charged units: expires around unit 512.
        deadline = Deadline(3.0, clock=_SteppingClock(0.001))
        with pytest.raises(CypherDeadlineExceeded):
            CypherEngine(store).execute(query, deadline=deadline)


@pytest.fixture()
def clique_store():
    """Seven nodes, an X edge between every pair: 906 trails of 1..4 hops from each."""
    return _clique(7)


#: Pattern predicates that enumerate every 1..4-hop trail from one node.
_TRAIL_PREDICATES = [
    "MATCH (a:N {i: 0}) RETURN size([(a)-[:X*1..4]-(b) | b]) AS n",
    "MATCH (a:N {i: 0}) RETURN EXISTS((a)-[:X*1..4]-(:N {i: -1})) AS n",
    "MATCH (a:N {i: 0}) RETURN size([(a)-[:X*1..4]-(b) WHERE b.i = -1 | b]) AS n",
]


class TestPatternPredicateLimits:
    """Pattern predicates run an operator sub-chain per row, which must obey
    the same row budget and deadline as the rest of the operator tree, also
    when it rejects every step it examines."""

    @pytest.mark.parametrize("query", _TRAIL_PREDICATES)
    def test_row_budget_charges_matcher_steps(self, clique_store, query):
        engine = CypherEngine(clique_store)
        assert engine.run(query).single()["n"] in (906, False, 0)
        with pytest.raises(ResourceExhausted, match="row budget"):
            engine.execute(query, row_budget=500)

    @pytest.mark.parametrize("query", _TRAIL_PREDICATES)
    def test_deadline_checked_inside_matcher(self, clique_store, query):
        engine = CypherEngine(clique_store)
        # One clock reading per 256 charged rows: expires around row 512,
        # long before the 906 trails are enumerated.
        deadline = Deadline(3.0, clock=_SteppingClock(0.001))
        with pytest.raises(CypherDeadlineExceeded):
            engine.execute(query, deadline=deadline)

    def test_exists_stops_at_first_match(self, clique_store):
        engine = CypherEngine(clique_store)
        exists = "MATCH (a:N {i: 0}) RETURN EXISTS((a)-[:X*1..4]-(b)) AS n"
        assert engine.execute(exists, row_budget=50).single()["n"] is True
        with pytest.raises(ResourceExhausted):
            engine.execute(
                "MATCH (a:N {i: 0}) RETURN size([(a)-[:X*1..4]-(b) | b]) AS n",
                row_budget=50,
            )


def _walk(profile):
    yield profile
    for child in profile.get("children", ()):
        yield from _walk(child)


class TestProfileTree:
    def test_every_operator_reports_rows_and_time(self, chain_store):
        engine = CypherEngine(chain_store)
        result = engine.execute(
            "MATCH (a:AS)-[:COUNTRY]->(c:Country) WHERE a.asn <= 6 "
            "RETURN c.country_code AS cc, count(a) AS n ORDER BY n DESC",
            profile=True,
        )
        assert result.profile is not None
        nodes = list(_walk(result.profile))
        assert len(nodes) >= 5  # scan, expand, filter, aggregate, sort, produce
        for node in nodes:
            assert isinstance(node["operator"], str) and node["operator"]
            assert node["rows"] >= 0
            assert node["time_ms"] >= 0.0
            assert node["self_time_ms"] >= 0.0

    def test_profile_times_are_positive_and_inclusive(self, chain_store):
        engine = CypherEngine(chain_store)
        result = engine.execute(
            "MATCH (a:AS) RETURN a.asn AS asn ORDER BY a.tier DESC, asn", profile=True
        )
        nodes = list(_walk(result.profile))
        assert [n["operator"] for n in nodes] == [
            "ProduceResults", "Sort", "Project", "Match", "LabelScan", "Init",
        ]
        for node in nodes:
            assert node["rows"] > 0 and node["time_ms"] > 0.0, node["operator"]
            for child in node.get("children", ()):
                assert node["time_ms"] >= child["time_ms"], (node["operator"], child["operator"])

    def test_planned_anchor_names_access_path(self, chain_store):
        engine = CypherEngine(chain_store)
        result = engine.execute(
            "MATCH (a:AS {asn: 3}) RETURN a.asn", profile=True
        )
        nodes = list(_walk(result.profile))
        anchors = [n for n in nodes if n["operator"] == "HashLookup"]
        assert [(n["detail"], n["rows"]) for n in anchors] == [(":AS.asn", 1)]
        assert all(n["time_ms"] >= 0.0 for n in anchors)
        # The rule planner keeps no cardinality estimates to report.
        assert not any("estimate" in n for n in nodes)

    def test_render_profile_text(self, chain_store):
        engine = CypherEngine(chain_store)
        result, rendered = engine.profile("MATCH (a:AS {asn: 3}) RETURN a.asn AS n")
        assert result.single()["n"] == 3
        assert "ProduceResults" in rendered
        assert "rows (" in rendered and "ms)" in rendered

    def test_profile_off_by_default(self, chain_store):
        engine = CypherEngine(chain_store)
        assert engine.run("RETURN 1 AS x").profile is None


class TestUnionStreaming:
    def test_union_column_mismatch_is_syntax_error(self, chain_store):
        engine = CypherEngine(chain_store)
        with pytest.raises(CypherSyntaxError, match="same column names"):
            engine.run("RETURN 1 AS a UNION RETURN 2 AS b")

    def test_union_profile_shows_branches(self, chain_store):
        engine = CypherEngine(chain_store)
        _, rendered = engine.profile("RETURN 1 AS n UNION RETURN 2 AS n")
        assert "UNION branch" in rendered

    def test_union_streams_with_limit(self, chain_store):
        # The consumer's LIMIT reaches into the union: the first branch
        # satisfies it, so the second branch's scan stays unopened (0 rows).
        engine = CypherEngine(chain_store)
        result = engine.execute(
            "MATCH (a:AS) RETURN a.asn AS n UNION ALL "
            "MATCH (a:AS) RETURN a.asn + 100 AS n",
            profile=True,
        )
        assert len(result) == 40
        assert max_operator_rows(result.profile) >= 40


class _FixedCypherLLM(LLM):
    """Stub backbone: always emits the same Cypher."""

    def __init__(self, cypher: str) -> None:
        self.cypher = cypher

    @property
    def model_name(self) -> str:
        return "fixed-cypher"

    def complete(self, prompt: str) -> CompletionResponse:
        return CompletionResponse(text=self.cypher, metadata={"cypher": self.cypher})


class _ErrorLog(PipelineObserver):
    """Keeps every (stage, error) pair the pipeline reports."""

    def __init__(self) -> None:
        self.errors = []

    def on_error(self, stage, error, ctx) -> None:
        self.errors.append((stage, error))


def _symbolic_only_engine(retriever, *observers):
    """A text2cypher-only engine: no vector fallback, no reranker."""
    return RetrieverQueryEngine(
        text2cypher=retriever,
        synthesizer=ResponseSynthesizer(retriever.llm, answer_prompt),
        observers=observers,
    )


class TestPipelineIntegration:
    def test_row_budget_maps_to_taxonomy(self, chain_store):
        # 20,000 unwound rows exceed the budget the retriever derives for
        # the 60-element chain graph (2 x 60 + 10,000 = 10,120 rows).
        retriever = TextToCypherRetriever(
            engine=CypherEngine(chain_store),
            llm=_FixedCypherLLM("UNWIND range(1, 20000) AS x RETURN count(x)"),
            schema_text="",
            prompt_builder=text2cypher_prompt,
        )
        log = _ErrorLog()
        response = _symbolic_only_engine(retriever, log).query("everything")
        [(stage, error)] = log.errors
        assert stage == "symbolic"
        assert isinstance(error, RagResourceExhausted)
        assert error.kind == "resource_exhausted"
        assert response.diagnostics["error_class"]["kind"] == "resource_exhausted"

    def test_engine_deadline_maps_to_taxonomy(self, chain_store):
        retriever = TextToCypherRetriever(
            engine=CypherEngine(chain_store),
            llm=_FixedCypherLLM("UNWIND range(1, 100000) AS x RETURN count(x)"),
            schema_text="",
            prompt_builder=text2cypher_prompt,
        )
        log = _ErrorLog()
        deadline = Deadline(5.0, clock=_SteppingClock(0.001))
        response = _symbolic_only_engine(retriever, log).query("slow", deadline=deadline)
        [(stage, error)] = log.errors
        assert stage == "symbolic"
        assert isinstance(error, DeadlineExceeded)
        assert response.diagnostics["error_class"]["kind"] == "deadline"
