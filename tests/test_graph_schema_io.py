"""Tests for schema introspection and CSV import/export."""

import io

import pytest

from repro.cypher import CypherEngine
from repro.graph import GraphStore, introspect_schema
from repro.graph.csv_io import (
    export_graph,
    export_to_directory,
    import_from_directory,
    import_graph,
)
from repro.iyp import IYPConfig, generate_iyp


@pytest.fixture()
def store():
    store = GraphStore()
    iij = store.create_node(["AS"], {"asn": 2497, "name": "IIJ"})
    jp = store.create_node(["Country"], {"country_code": "JP"})
    store.create_relationship(iij.node_id, "COUNTRY", jp.node_id)
    store.create_relationship(iij.node_id, "POPULATION", jp.node_id, {"percent": 5.3})
    return store


class TestSchemaIntrospection:
    def test_node_labels_and_counts(self, store):
        schema = introspect_schema(store)
        assert schema.node_labels == {"AS": 1, "Country": 1}

    def test_node_properties_sorted(self, store):
        schema = introspect_schema(store)
        assert schema.node_properties["AS"] == ("asn", "name")

    def test_relationship_patterns(self, store):
        schema = introspect_schema(store)
        patterns = {rel.pattern() for rel in schema.relationships}
        assert "(:AS)-[:COUNTRY]->(:Country)" in patterns
        assert "(:AS)-[:POPULATION]->(:Country)" in patterns

    def test_relationship_property_keys(self, store):
        schema = introspect_schema(store)
        population = next(r for r in schema.relationships if r.rel_type == "POPULATION")
        assert population.property_keys == ("percent",)

    def test_describe_renders_prompt_text(self, store):
        text = introspect_schema(store).describe()
        assert "(:AS {asn, name})" in text
        assert "(:AS)-[:POPULATION]->(:Country) {percent}" in text

    def test_describe_respects_max_relationships(self, store):
        text = introspect_schema(store).describe(max_relationships=1)
        assert text.count("->") == 1

    def test_has_label_and_types(self, store):
        schema = introspect_schema(store)
        assert schema.has_label("AS")
        assert not schema.has_label("Prefix")
        assert schema.relationship_types() == ["COUNTRY", "POPULATION"]

    def test_multilabel_node_counts_once_per_label(self):
        store = GraphStore()
        store.create_node(["AS", "Legacy"], {"asn": 1})
        schema = introspect_schema(store)
        assert schema.node_labels == {"AS": 1, "Legacy": 1}


class TestCsvRoundtrip:
    def test_stream_roundtrip(self, store):
        nodes_file, rels_file = io.StringIO(), io.StringIO()
        export_graph(store, nodes_file, rels_file)
        nodes_file.seek(0)
        rels_file.seek(0)
        loaded = import_graph(nodes_file, rels_file)
        assert loaded.node_count == store.node_count
        assert loaded.relationship_count == store.relationship_count
        iij = next(loaded.nodes_by_property("AS", "asn", 2497))
        assert iij["name"] == "IIJ"

    def test_directory_roundtrip(self, store, tmp_path):
        export_to_directory(store, tmp_path / "dump")
        loaded = import_from_directory(tmp_path / "dump")
        assert loaded.node_count == 2
        rels = list(loaded.all_relationships())
        assert {rel.rel_type for rel in rels} == {"COUNTRY", "POPULATION"}
        population = next(r for r in rels if r.rel_type == "POPULATION")
        assert population["percent"] == 5.3

    def test_roundtrip_preserves_list_properties(self, tmp_path):
        store = GraphStore()
        store.create_node(["AS"], {"asn": 1, "tags": ["a", "b"]})
        export_to_directory(store, tmp_path)
        loaded = import_from_directory(tmp_path)
        node = next(loaded.nodes_by_label("AS"))
        assert node["tags"] == ["a", "b"]

    def test_roundtrip_preserves_multi_labels(self, tmp_path):
        store = GraphStore()
        store.create_node(["AS", "Legacy"], {"asn": 1})
        export_to_directory(store, tmp_path)
        loaded = import_from_directory(tmp_path)
        node = next(loaded.nodes_by_label("Legacy"))
        assert node.labels == frozenset({"AS", "Legacy"})

    def test_import_rejects_bad_header(self):
        nodes = io.StringIO("wrong,header,here\n")
        rels = io.StringIO("start_id,type,end_id,properties\n")
        with pytest.raises(ValueError):
            import_graph(nodes, rels)

    def test_import_rejects_unknown_node_id(self):
        nodes = io.StringIO('node_id,labels,properties\n0,AS,"{}"\n')
        rels = io.StringIO(
            "start_id,type,end_id,properties\n0,PEERS_WITH,7,{}\n"
        )
        with pytest.raises(ValueError, match=r"row 2 .*unknown node id 7"):
            import_graph(nodes, rels)

    def test_stream_roundtrip_keeps_property_indexes(self):
        source = generate_iyp(IYPConfig.medium(seed=42)).store
        files = io.StringIO(), io.StringIO(), io.StringIO()
        export_graph(source, *files)
        for handle in files:
            handle.seek(0)
        loaded = import_graph(*files)
        assert len(source.statistics().indexes) == 10
        assert loaded.statistics().indexes == source.statistics().indexes
        plan = CypherEngine(loaded).explain("MATCH (a:AS {asn: 2497}) RETURN a")
        assert "+- HashLookup(:AS.asn)\n" in plan  # no "label scan": the index serves it

    def test_directory_roundtrip_keeps_property_indexes(self, store, tmp_path):
        store.create_property_index("AS", "asn")
        export_to_directory(store, tmp_path)
        loaded = import_from_directory(tmp_path)
        assert loaded.statistics().indexes == {("AS", "asn")}
        plan = CypherEngine(loaded).explain("MATCH (a:AS {asn: 2497}) RETURN a")
        assert "+- HashLookup(:AS.asn)\n" in plan

    def test_dump_without_index_list_imports_without_indexes(self, store, tmp_path):
        store.create_property_index("AS", "asn")
        export_to_directory(store, tmp_path)
        (tmp_path / "indexes.csv").unlink()
        loaded = import_from_directory(tmp_path)
        assert loaded.node_count == store.node_count
        assert loaded.statistics().indexes == frozenset()
        plan = CypherEngine(loaded).explain("MATCH (a:AS {asn: 2497}) RETURN a")
        assert "+- HashLookup(:AS.asn, label scan)\n" in plan

    def test_import_remaps_ids(self, tmp_path):
        # Dump ids come from outside the program: gaps and any order map to
        # fresh ids in file order, and relationships follow the map.
        (tmp_path / "nodes.csv").write_text(
            "node_id,labels,properties\n"
            '7,AS,"{""asn"": 2497}"\n'
            '3,Country,"{""country_code"": ""JP""}"\n'
            '42,AS,"{""asn"": 15169}"\n'
        )
        (tmp_path / "relationships.csv").write_text(
            "start_id,type,end_id,properties\n"
            "7,COUNTRY,3,{}\n"
            '42,PEERS_WITH,7,"{""rel"": 0}"\n'
        )
        loaded = import_from_directory(tmp_path)
        assert [(n.node_id, dict(n.properties)) for n in loaded.all_nodes()] == [
            (0, {"asn": 2497}), (1, {"country_code": "JP"}), (2, {"asn": 15169}),
        ]
        assert [(r.start_id, r.rel_type, r.end_id, dict(r.properties))
                for r in loaded.all_relationships()] == [
            (0, "COUNTRY", 1, {}), (2, "PEERS_WITH", 0, {"rel": 0}),
        ]
