"""Tests for EXPLAIN."""

import pytest

from repro.cypher import CypherEngine


class TestExplain:
    @pytest.fixture()
    def engine(self, tiny_store):
        return CypherEngine(tiny_store)

    def test_simple_match_plan(self, engine):
        plan = engine.explain("MATCH (a:AS {asn: 2497}) RETURN a.name")
        assert "+- HashLookup(:AS.asn, label scan)" in plan  # the tiny graph has no index
        assert plan.startswith("+- ProduceResults(a.name)")

    def test_label_scan_plan(self, engine):
        plan = engine.explain("MATCH (a:AS) RETURN a")
        assert "+- LabelScan(:AS)" in plan

    def test_all_nodes_scan_plan(self, engine):
        plan = engine.explain("MATCH (n) RETURN n")
        assert "+- AllNodesScan" in plan

    def test_anchor_reversal_visible(self, engine):
        plan = engine.explain(
            "MATCH (a)-[:ORIGINATE]->(p:Prefix {prefix: 'x'}) RETURN a"
        )
        # anchored at the Prefix lookup, the hop runs right to left
        assert (
            "      +- Expand([:ORIGINATE]<-)\n"
            "        +- HashLookup(:Prefix.prefix, label scan)\n"
        ) in plan

    def test_where_and_projection_detail(self, engine):
        plan = engine.explain(
            "MATCH (a:AS) WHERE a.asn > 1 "
            "RETURN DISTINCT a.name ORDER BY a.name LIMIT 3"
        )
        assert plan.splitlines() == [
            "+- ProduceResults(a.name)",
            "  +- Limit(3)",
            "    +- TopK(1 keys, top 3)",
            "      +- Distinct",
            "        +- Project(a.name)",
            "          +- Filter(WHERE)",
            "            +- Match(1 nodes, 0 hops)",
            "              +- LabelScan(:AS, pushed a.asn >)",
            "                +- Init",
        ]

    def test_aggregate_flag(self, engine):
        plan = engine.explain("MATCH (a:AS) RETURN count(*)")
        assert "  +- Aggregate(count(*))" in plan.splitlines()

    def test_shortest_path_plan(self, engine):
        plan = engine.explain(
            "MATCH (a:AS {asn: 1}), (b:AS {asn: 2}) "
            "MATCH p = shortestPath((a)-[:PEERS_WITH*]-(b)) RETURN p"
        )
        assert "+- ShortestPath(shortestPath, BoundAnchor(a) to BoundAnchor(b))" in plan

    def test_union_branches(self, engine):
        plan = engine.explain("RETURN 1 AS x UNION RETURN 2 AS x")
        assert plan.splitlines()[:2] == ["+- Union", "   UNION branch 1:"]
        assert "   UNION branch 2:" in plan.splitlines()

    def test_optional_match_label(self, engine):
        plan = engine.explain("MATCH (a:AS) OPTIONAL MATCH (a)-[:X]->(b) RETURN b")
        assert "    +- OptionalMatch" in plan.splitlines()
