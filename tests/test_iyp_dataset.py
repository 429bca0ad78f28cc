"""Tests for the synthetic IYP dataset generator."""

import gc
import io
import math
import time
import weakref

import pytest

from repro.cypher import execute
from repro.graph.csv_io import export_graph, import_graph
from repro.iyp import (
    AS2497_JP_PERCENT,
    EDGE_PATTERNS,
    IYPConfig,
    NodeLabel,
    RelType,
    generate_iyp,
    load_dataset,
    schema_summary,
)


class TestDeterminism:
    def test_same_seed_same_graph(self):
        first = generate_iyp(IYPConfig.small(seed=5))
        second = generate_iyp(IYPConfig.small(seed=5))
        assert first.store.node_count == second.store.node_count
        assert first.store.relationship_count == second.store.relationship_count
        assert first.asns == second.asns
        assert first.prefixes == second.prefixes
        assert first.population_share == second.population_share

    def test_different_seed_different_graph(self):
        first = generate_iyp(IYPConfig.small(seed=5))
        second = generate_iyp(IYPConfig.small(seed=6))
        assert first.prefixes != second.prefixes

    def test_loader_caches(self):
        assert load_dataset("small") is load_dataset("small")

    def test_loader_rejects_unknown_preset(self):
        with pytest.raises(ValueError):
            load_dataset("enormous")


class TestAnchors:
    def test_as2497_exists_with_name(self, small_dataset):
        node = small_dataset.as_nodes[2497]
        assert "IIJ" in node["name"]

    def test_japan_population_anchor(self, small_dataset):
        result = execute(
            small_dataset.store,
            "MATCH (:AS {asn: 2497})-[p:POPULATION]->(:Country {country_code: 'JP'}) "
            "RETURN p.percent AS percent",
        )
        assert result.single()["percent"] == AS2497_JP_PERCENT

    def test_well_known_ases_have_country(self, small_dataset):
        for asn in (2497, 15169, 13335):
            result = execute(
                small_dataset.store,
                "MATCH (:AS {asn: $asn})-[:COUNTRY]->(c:Country) RETURN c.country_code",
                asn=asn,
            )
            assert len(result) == 1


class TestSchemaConformance:
    def test_all_edges_match_documented_patterns(self, small_dataset):
        allowed = {(start, rel, end) for start, rel, end, _ in EDGE_PATTERNS}
        store = small_dataset.store
        for rel in store.all_relationships():
            start_labels = store.node(rel.start_id).labels
            end_labels = store.node(rel.end_id).labels
            assert any(
                (s, rel.rel_type, e) in allowed
                for s in start_labels
                for e in end_labels
            ), f"undocumented edge {start_labels} -{rel.rel_type}-> {end_labels}"

    def test_every_rel_type_is_exercised(self, small_dataset):
        present = set(small_dataset.store.relationship_types())
        assert present == set(RelType.ALL)

    def test_every_label_is_present(self, small_dataset):
        assert set(small_dataset.store.labels()) == set(NodeLabel.ALL)

    def test_edge_properties_match_schema(self, small_dataset):
        expected = {
            (start, rel, end): set(props) for start, rel, end, props in EDGE_PATTERNS
        }
        store = small_dataset.store
        for rel in store.all_relationships():
            start = sorted(store.node(rel.start_id).labels)[0]
            end = sorted(store.node(rel.end_id).labels)[0]
            allowed_props = expected.get((start, rel.rel_type, end))
            if allowed_props is not None:
                assert set(rel.properties) <= allowed_props

    def test_schema_summary_mentions_population(self):
        assert "(:AS)-[:POPULATION {percent}]->(:Country)" in schema_summary()


class TestStructure:
    def test_sizes_scale_with_config(self):
        small = generate_iyp(IYPConfig.small())
        assert small.store.node_count < 1500
        assert len(small.as_nodes) == IYPConfig.small().n_ases

    def test_every_as_has_exactly_one_country(self, small_dataset):
        result = execute(
            small_dataset.store,
            "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN a.asn AS asn, count(c) AS n",
        )
        assert all(record["n"] == 1 for record in result)
        assert len(result) == len(small_dataset.as_nodes)

    def test_every_prefix_has_an_origin(self, small_dataset):
        orphans = execute(
            small_dataset.store,
            "MATCH (p:Prefix) WHERE NOT (p)<-[:ORIGINATE]-(:AS) RETURN count(p) AS c",
        )
        assert orphans.single()["c"] == 0

    def test_population_percentages_are_sane(self, small_dataset):
        result = execute(
            small_dataset.store,
            "MATCH (:AS)-[p:POPULATION]->(c:Country) "
            "RETURN c.country_code AS cc, sum(p.percent) AS total",
        )
        for record in result:
            assert 0 < record["total"] <= 110.0

    def test_asrank_is_a_permutation(self, small_dataset):
        result = execute(
            small_dataset.store,
            "MATCH (:AS)-[r:RANK]->(:Ranking {name: 'CAIDA ASRank'}) "
            "RETURN r.rank AS rank ORDER BY rank",
        )
        ranks = result.values("rank")
        assert ranks == list(range(1, len(small_dataset.as_nodes) + 1))

    def test_tier1_clique_peers(self, small_dataset):
        n_tier1 = small_dataset.config.n_tier1
        ranked = sorted(
            small_dataset.as_size, key=small_dataset.as_size.get, reverse=True
        )[:n_tier1]
        result = execute(
            small_dataset.store,
            "MATCH (a:AS)-[r:PEERS_WITH {rel: 0}]-(b:AS) "
            "WHERE a.asn IN $tier1 AND b.asn IN $tier1 "
            "RETURN count(DISTINCT r) AS edges",
            tier1=ranked,
        )
        assert result.single()["edges"] == n_tier1 * (n_tier1 - 1) // 2

    def test_dependencies_have_hegemony_in_range(self, small_dataset):
        result = execute(
            small_dataset.store,
            "MATCH (:AS)-[d:DEPENDS_ON]->(:AS) RETURN min(d.hege) AS lo, max(d.hege) AS hi",
        )
        record = result.single()
        assert 0.0 < record["lo"] <= record["hi"] <= 1.0

    def test_prefixes_unique(self, small_dataset):
        assert len(small_dataset.prefixes) == len(set(small_dataset.prefixes))

    def test_ips_are_inside_their_prefix_network(self, small_dataset):
        result = execute(
            small_dataset.store,
            "MATCH (i:IP)-[:PART_OF]->(p:Prefix) RETURN i.ip AS ip, p.prefix AS prefix",
        )
        for record in result:
            prefix_base = record["prefix"].split("/")[0].rsplit(".", 1)[0]
            assert record["ip"].startswith(prefix_base + ".")

    def test_hostnames_point_to_existing_domains(self, small_dataset):
        orphans = execute(
            small_dataset.store,
            "MATCH (h:HostName) WHERE NOT (h)-[:PART_OF]->(:DomainName) "
            "RETURN count(h) AS c",
        )
        assert orphans.single()["c"] == 0

    def test_indexed_lookup_agrees_with_scan(self, small_dataset):
        store = small_dataset.store
        asn = small_dataset.asns[0]
        indexed = list(store.nodes_by_property("AS", "asn", asn))
        scanned = [n for n in store.nodes_by_label("AS") if n["asn"] == asn]
        assert indexed == scanned


class TestDistributionRealism:
    def test_prefix_origination_is_heavy_tailed(self, small_dataset):
        """Power-law AS sizes: the top decile originates most prefixes."""
        counts = {}
        for asn in small_dataset.prefix_origin.values():
            counts[asn] = counts.get(asn, 0) + 1
        ordered = sorted(counts.values(), reverse=True)
        top_decile = max(1, len(small_dataset.as_nodes) // 10)
        share = sum(ordered[:top_decile]) / sum(ordered)
        # Uniform allocation would give the top decile ~14% here; the
        # power-law weights should concentrate clearly more than that.
        assert share > 0.25

    def test_peer_degree_skewed(self, small_dataset):
        store = small_dataset.store
        degrees = sorted(
            (
                store.degree(node.node_id, "both", ["PEERS_WITH"])
                for node in store.nodes_by_label("AS")
            ),
            reverse=True,
        )
        assert degrees[0] >= 3 * max(1, degrees[len(degrees) // 2])

    def test_most_ases_have_providers(self, small_dataset):
        from repro.cypher import execute

        orphaned = execute(
            small_dataset.store,
            "MATCH (a:AS) WHERE NOT (a)-[:DEPENDS_ON]->(:AS) RETURN count(a) AS c",
        ).single()["c"]
        # Only the tier-1 clique has no upstream dependencies.
        assert orphaned <= small_dataset.config.n_tier1


class TestGCFreeze:
    """Bulk builds freeze the finished graph out of the cyclic GC's scans."""

    @staticmethod
    def _graph_size(store) -> int:
        return store.node_count + store.relationship_count

    def test_generate_freezes_and_a_dropped_graph_is_freed(self):
        before = gc.get_freeze_count()
        dataset = generate_iyp(IYPConfig.small(seed=11))
        size = self._graph_size(dataset.store)
        frozen = gc.get_freeze_count()
        assert frozen - before >= size
        store_ref = weakref.ref(dataset.store)
        del dataset
        # Refcounting alone frees the frozen graph: nothing leaks.
        assert store_ref() is None
        assert frozen - gc.get_freeze_count() >= size

    def test_import_freezes_and_a_dropped_graph_is_freed(self):
        source = generate_iyp(IYPConfig.small(seed=12)).store
        nodes, rels = io.StringIO(), io.StringIO()
        export_graph(source, nodes, rels)
        nodes.seek(0)
        rels.seek(0)
        before = gc.get_freeze_count()
        store = import_graph(nodes, rels)
        size = self._graph_size(store)
        assert size == self._graph_size(source)
        frozen = gc.get_freeze_count()
        assert frozen - before >= size
        store_ref = weakref.ref(store)
        del store
        assert store_ref() is None
        assert frozen - gc.get_freeze_count() >= size

    def test_build_runs_only_the_final_collection(self):
        config = IYPConfig.small(seed=7)
        generations = []

        def hook(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.collect()  # reset the allocation counters before hooking
        gc.callbacks.append(hook)
        try:
            generate_iyp(config)
        finally:
            gc.callbacks.remove(hook)
        assert generations == [2]

    def test_builds_make_no_cyclic_garbage(self, monkeypatch):
        """Neither bulk builder makes cyclic garbage, so the freeze that ends
        a build can never keep any alive.  With ``gc.freeze`` stubbed out,
        the collection after a build sees everything the build left."""
        monkeypatch.setattr(gc, "freeze", lambda: None)
        source = generate_iyp(IYPConfig.small(seed=7)).store
        assert gc.collect() == 0
        nodes, rels = io.StringIO(), io.StringIO()
        export_graph(source, nodes, rels)
        nodes.seek(0)
        rels.seek(0)
        gc.collect()
        assert import_graph(nodes, rels).node_count == source.node_count
        assert gc.collect() == 0

    def test_build_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        try:
            generate_iyp(IYPConfig.small(seed=7))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_failed_import_restores_the_collector_and_freezes_nothing(self):
        nodes = io.StringIO('node_id,labels,properties\n0,AS,"{}"\n')
        rels = io.StringIO("wrong,header\n")
        assert gc.isenabled()
        before = gc.get_freeze_count()
        with pytest.raises(ValueError):
            import_graph(nodes, rels)
        assert gc.isenabled()
        assert gc.get_freeze_count() == before

    def test_frozen_graph_still_takes_writes(self):
        store = generate_iyp(IYPConfig.small(seed=13)).store
        execute(store, "MATCH (a:AS {asn: 2497}) SET a.name = 'renamed'")
        execute(
            store,
            "MATCH (a:AS {asn: 2497}) "
            "CREATE (a)-[:ORIGINATE]->(:Prefix {prefix: '203.0.113.0/24'})",
        )
        row = execute(
            store,
            "MATCH (a:AS {asn: 2497})-[:ORIGINATE]->(p:Prefix {prefix: '203.0.113.0/24'}) "
            "RETURN a.name AS name, count(p) AS c",
        ).single()
        assert (row["name"], row["c"]) == ("renamed", 1)


def _build_time_per_element(config: IYPConfig) -> float:
    """One build's wall time, in seconds per node plus relationship."""
    start = time.perf_counter()
    dataset = generate_iyp(config)
    elapsed = time.perf_counter() - start
    size = dataset.store.node_count + dataset.store.relationship_count
    del dataset  # free the graph outside the timed region
    return elapsed / size


@pytest.mark.slow
def test_build_time_scales_linearly():
    """The large graph (5.7x medium's elements) costs about the same per element.

    Best of three builds per size, alternating sizes so host load hits both.
    A weighted draw that re-accumulates every AS weight pushes the ratio
    past 2.
    """
    medium = large = math.inf
    for _ in range(3):
        medium = min(medium, _build_time_per_element(IYPConfig.medium(seed=42)))
        large = min(large, _build_time_per_element(IYPConfig.large(seed=42)))
    assert large / medium < 1.7, (medium, large)
