"""Tests for subgraph extraction, neighbourhoods and EXPLAIN."""

import pytest

from repro.cypher import CypherEngine, execute
from repro.graph import GraphStore


class TestSubgraph:
    def test_induced_subgraph(self, tiny_store):
        iij = next(tiny_store.nodes_by_property("AS", "asn", 2497))
        jp = next(tiny_store.nodes_by_property("Country", "country_code", "JP"))
        sub = tiny_store.subgraph([iij.node_id, jp.node_id])
        assert sub.node_count == 2
        # COUNTRY + POPULATION edges both survive; PEERS_WITH (to GOOGLE) doesn't.
        assert sub.relationship_count == 2
        assert set(sub.relationship_types()) == {"COUNTRY", "POPULATION"}

    def test_ids_remapped_from_zero(self, tiny_store):
        iij = next(tiny_store.nodes_by_property("AS", "asn", 2497))
        sub = tiny_store.subgraph([iij.node_id])
        assert [n.node_id for n in sub.all_nodes()] == [0]

    def test_properties_copied_not_shared(self, tiny_store):
        iij = next(tiny_store.nodes_by_property("AS", "asn", 2497))
        sub = tiny_store.subgraph([iij.node_id])
        sub.set_node_property(0, "name", "changed")
        assert tiny_store.node(iij.node_id)["name"] == "IIJ"

    def test_subgraph_queryable(self, tiny_store):
        ids = [n.node_id for n in tiny_store.all_nodes()]
        sub = tiny_store.subgraph(ids)
        result = execute(sub, "MATCH (a:AS {asn: 2497})-[p:POPULATION]->(c) RETURN p.percent")
        assert result.single()[0] == 5.3

    def test_empty_subgraph(self, tiny_store):
        sub = tiny_store.subgraph([])
        assert sub.node_count == 0
        assert sub.relationship_count == 0


class TestNeighbourhood:
    def test_zero_hops_is_self(self, tiny_store):
        iij = next(tiny_store.nodes_by_property("AS", "asn", 2497))
        assert tiny_store.neighbourhood(iij.node_id, 0) == {iij.node_id}

    def test_one_hop(self, tiny_store):
        iij = next(tiny_store.nodes_by_property("AS", "asn", 2497))
        hood = tiny_store.neighbourhood(iij.node_id, 1)
        # IIJ connects to JP (twice), GOOGLE and its prefix.
        assert len(hood) == 4

    def test_two_hops_reaches_us(self, tiny_store):
        iij = next(tiny_store.nodes_by_property("AS", "asn", 2497))
        hood = tiny_store.neighbourhood(iij.node_id, 2)
        us = next(tiny_store.nodes_by_property("Country", "country_code", "US"))
        assert us.node_id in hood

    def test_negative_hops_rejected(self, tiny_store):
        with pytest.raises(ValueError):
            tiny_store.neighbourhood(0, -1)

    def test_neighbourhood_plus_subgraph_roundtrip(self, small_dataset):
        store = small_dataset.store
        iij = small_dataset.as_nodes[2497]
        sub = store.subgraph(store.neighbourhood(iij.node_id, 1))
        result = execute(sub, "MATCH (:AS {asn: 2497})-[p:POPULATION]->(c:Country) RETURN c.country_code")
        assert "JP" in result.values()


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
