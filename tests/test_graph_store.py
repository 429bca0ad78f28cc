"""Unit tests for the GraphStore."""

import pytest

from repro.graph import EntityNotFound, GraphError, GraphStore


@pytest.fixture()
def store():
    return GraphStore()


class TestCreation:
    def test_create_node_assigns_sequential_ids(self, store):
        a = store.create_node(["AS"], {"asn": 1})
        b = store.create_node(["AS"], {"asn": 2})
        assert (a.node_id, b.node_id) == (0, 1)
        assert store.node_count == 2

    def test_node_requires_label(self, store):
        with pytest.raises(GraphError):
            store.create_node([], {})

    def test_create_relationship(self, store):
        a = store.create_node(["AS"])
        b = store.create_node(["AS"])
        rel = store.create_relationship(a.node_id, "PEERS_WITH", b.node_id, {"rel": 0})
        assert rel.start_id == a.node_id
        assert rel.end_id == b.node_id
        assert store.relationship_count == 1

    def test_relationship_endpoints_must_exist(self, store):
        a = store.create_node(["AS"])
        with pytest.raises(EntityNotFound):
            store.create_relationship(a.node_id, "X", 999)
        with pytest.raises(EntityNotFound):
            store.create_relationship(999, "X", a.node_id)

    def test_self_loop_allowed(self, store):
        a = store.create_node(["AS"])
        rel = store.create_relationship(a.node_id, "X", a.node_id)
        assert rel.start_id == rel.end_id


class TestLookup:
    def test_node_lookup(self, store):
        a = store.create_node(["AS"], {"asn": 1})
        assert store.node(a.node_id) is a
        assert store.has_node(a.node_id)
        assert not store.has_node(42)

    def test_missing_node_raises(self, store):
        with pytest.raises(EntityNotFound):
            store.node(7)

    def test_missing_relationship_raises(self, store):
        with pytest.raises(EntityNotFound):
            store.relationship(7)

    def test_labels_listing(self, store):
        store.create_node(["AS"])
        store.create_node(["Country"])
        assert store.labels() == ["AS", "Country"]

    def test_relationship_types_listing(self, store):
        a = store.create_node(["AS"])
        b = store.create_node(["AS"])
        store.create_relationship(a.node_id, "B_TYPE", b.node_id)
        store.create_relationship(a.node_id, "A_TYPE", b.node_id)
        assert store.relationship_types() == ["A_TYPE", "B_TYPE"]


class TestScans:
    def test_nodes_by_label(self, store):
        a = store.create_node(["AS"])
        store.create_node(["Country"])
        c = store.create_node(["AS"])
        assert [n.node_id for n in store.nodes_by_label("AS")] == [a.node_id, c.node_id]

    def test_all_nodes_in_id_order(self, store):
        ids = [store.create_node(["AS"]).node_id for _ in range(5)]
        assert [n.node_id for n in store.all_nodes()] == ids

    def test_nodes_by_property_without_index(self, store):
        store.create_node(["AS"], {"asn": 1})
        b = store.create_node(["AS"], {"asn": 2})
        found = list(store.nodes_by_property("AS", "asn", 2))
        assert found == [b]

    def test_nodes_by_property_with_index(self, store):
        store.create_node(["AS"], {"asn": 1})
        b = store.create_node(["AS"], {"asn": 2})
        store.create_property_index("AS", "asn")
        assert list(store.nodes_by_property("AS", "asn", 2)) == [b]
        # Index stays fresh for nodes created after it was built.
        c = store.create_node(["AS"], {"asn": 2})
        assert list(store.nodes_by_property("AS", "asn", 2)) == [b, c]

    def test_index_handles_list_values(self, store):
        a = store.create_node(["AS"], {"tags": ["x", "y"]})
        store.create_property_index("AS", "tags")
        assert list(store.nodes_by_property("AS", "tags", ["x", "y"])) == [a]


class TestAdjacency:
    @pytest.fixture()
    def triangle(self, store):
        a = store.create_node(["AS"], {"asn": 1})
        b = store.create_node(["AS"], {"asn": 2})
        c = store.create_node(["AS"], {"asn": 3})
        ab = store.create_relationship(a.node_id, "PEERS_WITH", b.node_id)
        bc = store.create_relationship(b.node_id, "PEERS_WITH", c.node_id)
        ca = store.create_relationship(c.node_id, "DEPENDS_ON", a.node_id)
        return store, a, b, c, ab, bc, ca

    def test_outgoing(self, triangle):
        store, a, b, c, ab, bc, ca = triangle
        assert list(store.relationships_of(a.node_id, "out")) == [ab]

    def test_incoming(self, triangle):
        store, a, b, c, ab, bc, ca = triangle
        assert list(store.relationships_of(a.node_id, "in")) == [ca]

    def test_both(self, triangle):
        store, a, b, c, ab, bc, ca = triangle
        assert list(store.relationships_of(a.node_id, "both")) == [ab, ca]

    def test_type_filter(self, triangle):
        store, a, b, c, ab, bc, ca = triangle
        assert list(store.relationships_of(a.node_id, "both", ["DEPENDS_ON"])) == [ca]

    def test_bad_direction_rejected(self, triangle):
        store, a, *_ = triangle
        with pytest.raises(ValueError):
            list(store.relationships_of(a.node_id, "sideways"))

    def test_degree(self, triangle):
        store, a, b, c, *_ = triangle
        assert store.degree(a.node_id) == 2
        assert store.degree(b.node_id, "out") == 1
        assert store.degree(c.node_id, "both", ["PEERS_WITH"]) == 1


class TestMutation:
    def test_set_node_property(self, store):
        a = store.create_node(["AS"], {"asn": 1})
        store.set_node_property(a.node_id, "name", "X")
        assert store.node(a.node_id)["name"] == "X"

    def test_set_none_removes_property(self, store):
        a = store.create_node(["AS"], {"asn": 1})
        store.set_node_property(a.node_id, "asn", None)
        assert "asn" not in store.node(a.node_id)

    def test_set_property_updates_index(self, store):
        a = store.create_node(["AS"], {"asn": 1})
        store.create_property_index("AS", "asn")
        store.set_node_property(a.node_id, "asn", 7)
        assert list(store.nodes_by_property("AS", "asn", 7)) == [a]
        assert list(store.nodes_by_property("AS", "asn", 1)) == []

    def test_set_relationship_property(self, store):
        a = store.create_node(["AS"])
        b = store.create_node(["AS"])
        rel = store.create_relationship(a.node_id, "X", b.node_id)
        store.set_relationship_property(rel.rel_id, "w", 3)
        assert store.relationship(rel.rel_id)["w"] == 3


class TestStatsVersion:
    """Every public write bumps ``stats_version``: the statistics snapshot, result
    memos and the answer cache all key on it."""

    WRITES = {
        "create_node": lambda s: s.create_node(["AS"], {"asn": 9}),
        "create_relationship": lambda s: s.create_relationship(0, "X", 1),
        "set_node_property": lambda s: s.set_node_property(0, "asn", 2),
        "set_relationship_property": lambda s: s.set_relationship_property(0, "w", 3),
        "delete_relationship": lambda s: s.delete_relationship(0),
        "delete_node": lambda s: s.delete_node(1, detach=True),
        "create_property_index": lambda s: s.create_property_index("AS", "asn"),
    }

    def test_writes_are_enumerated(self):
        public = {
            name for name in dir(GraphStore)
            if name.startswith(("create_", "set_", "delete_"))
        }
        assert public == set(self.WRITES)

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_every_write_increases_version(self, store, write):
        a = store.create_node(["AS"], {"asn": 1})
        b = store.create_node(["AS"], {"asn": 2})
        store.create_relationship(a.node_id, "X", b.node_id)
        before = store.stats_version
        self.WRITES[write](store)
        assert store.stats_version > before

    def test_relationship_property_removal_increases_version(self, store):
        a = store.create_node(["AS"])
        rel = store.create_relationship(a.node_id, "X", a.node_id, {"w": 1})
        before = store.stats_version
        store.set_relationship_property(rel.rel_id, "w", None)
        assert store.stats_version > before


class TestDeletion:
    def test_delete_relationship(self, store):
        a = store.create_node(["AS"])
        b = store.create_node(["AS"])
        rel = store.create_relationship(a.node_id, "X", b.node_id)
        store.delete_relationship(rel.rel_id)
        assert store.relationship_count == 0
        assert store.degree(a.node_id) == 0

    def test_delete_connected_node_requires_detach(self, store):
        a = store.create_node(["AS"])
        b = store.create_node(["AS"])
        store.create_relationship(a.node_id, "X", b.node_id)
        with pytest.raises(GraphError):
            store.delete_node(a.node_id)
        store.delete_node(a.node_id, detach=True)
        assert store.node_count == 1
        assert store.relationship_count == 0

    def test_delete_node_clears_label_index(self, store):
        a = store.create_node(["AS"], {"asn": 1})
        store.delete_node(a.node_id)
        assert list(store.nodes_by_label("AS")) == []

    def test_delete_node_clears_property_index(self, store):
        a = store.create_node(["AS"], {"asn": 1})
        store.create_property_index("AS", "asn")
        store.delete_node(a.node_id)
        assert list(store.nodes_by_property("AS", "asn", 1)) == []

    def test_delete_missing_raises(self, store):
        with pytest.raises(EntityNotFound):
            store.delete_node(9)
        with pytest.raises(EntityNotFound):
            store.delete_relationship(9)
