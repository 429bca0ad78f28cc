"""Unit tests for the GraphStore."""

import copy
import io
import json
import pickle
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import CypherEngine
from repro.graph import EntityNotFound, GraphError, GraphStore
from repro.graph.csv_io import export_graph, import_graph
from repro.graph.model import EMPTY_PROPERTIES, validate_properties


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
        for missing in (42, -1, "0", 0.5):
            with pytest.raises(EntityNotFound):
                store.node(missing)

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
        assert list(store.adjacent_relationships(a.node_id, "out")) == [ab]

    def test_incoming(self, triangle):
        store, a, b, c, ab, bc, ca = triangle
        assert list(store.adjacent_relationships(a.node_id, "in")) == [ca]

    def test_both(self, triangle):
        store, a, b, c, ab, bc, ca = triangle
        assert list(store.adjacent_relationships(a.node_id, "both")) == [ab, ca]

    def test_type_filter(self, triangle):
        store, a, b, c, ab, bc, ca = triangle
        assert list(store.adjacent_relationships(a.node_id, "both", ["DEPENDS_ON"])) == [ca]

    def test_bad_direction_rejected(self, triangle):
        store, a, *_ = triangle
        with pytest.raises(ValueError):
            list(store.adjacent_relationships(a.node_id, "sideways"))

    def test_degree(self, triangle):
        store, a, b, c, *_ = triangle
        assert store.degree(a.node_id) == 2
        assert store.degree(b.node_id, "out") == 1
        assert store.degree(c.node_id, "both", ["PEERS_WITH"]) == 1

    def test_adjacency_index(self, triangle):
        store, a, b, c, ab, bc, ca = triangle
        loop = store.create_relationship(a.node_id, "PEERS_WITH", a.node_id)
        out, incoming = store.adjacency_index("out"), store.adjacency_index("in")
        assert list(out["PEERS_WITH"][a.node_id]) == [ab, loop]
        assert list(incoming["PEERS_WITH"][a.node_id]) == [loop]
        assert incoming["PEERS_WITH"][a.node_id][0] is loop
        assert list(incoming["DEPENDS_ON"][a.node_id]) == [ca]
        assert a.node_id not in out["DEPENDS_ON"]
        lone = store.create_node(["AS"]).node_id
        assert all(lone not in by_node for by_node in out.values())
        cb = store.create_relationship(c.node_id, "DEPENDS_ON", b.node_id)
        assert list(store.adjacency_index("out")["DEPENDS_ON"][c.node_id]) == [ca, cb]
        with pytest.raises(ValueError):
            store.adjacency_index("both")


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


class TestEmptyBuckets:
    """A SET that empties a property-index bucket drops it, so churn retains
    nothing."""

    def test_property_index_drops_empty_buckets(self, store):
        a = store.create_node(["AS"], {"asn": 0})
        store.create_property_index("AS", "asn")
        index = store._property_index[("AS", "asn")]
        for value in range(1, 10_001):
            store.set_node_property(a.node_id, "asn", value)
        assert list(index) == [10_000]
        assert list(store.nodes_by_property("AS", "asn", 3)) == []
        assert list(index) == [10_000]
        store.set_node_property(a.node_id, "asn", None)
        assert index == {}


def _empty_index_entries(store):
    """Every empty map or bucket left in the store's indexes."""
    empty = [("label", label) for label, members in store._label_index.items() if not members]
    for direction in ("out", "in"):
        for rel_type, by_node in store.adjacency_index(direction).items():
            if not by_node:
                empty.append((direction, rel_type))
            empty += [(direction, rel_type, n) for n, rels in by_node.items() if not rels]
    for key, index in store._property_index.items():
        empty += [("property", key, value) for value, ids in index.items() if not ids]
    return empty


class TestSharedLabelSets:
    """Nodes with equal labels hold one shared ``frozenset``, however the
    store was filled."""

    @staticmethod
    def _label_set_objects(store):
        objects = {}
        for node in store.all_nodes():
            objects.setdefault(node.labels, set()).add(id(node.labels))
        return objects

    def test_create_node_shares_label_sets(self, store):
        a = store.create_node(["AS", "Legacy"])
        b = store.create_node(("Legacy", "AS"))
        c = store.create_node({"AS"})
        assert a.labels is b.labels
        assert c.labels == frozenset({"AS"}) and c.labels is not a.labels

    def test_generated_graph_shares_label_sets(self, small_dataset):
        objects = self._label_set_objects(small_dataset.store)
        assert len(objects) > 1
        assert all(len(ids) == 1 for ids in objects.values())

    def test_csv_round_trip_shares_label_sets(self, small_dataset):
        files = io.StringIO(), io.StringIO(), io.StringIO()
        export_graph(small_dataset.store, *files)
        for handle in files:
            handle.seek(0)
        loaded = import_graph(*files)
        objects = self._label_set_objects(loaded)
        assert objects.keys() == self._label_set_objects(small_dataset.store).keys()
        assert all(len(ids) == 1 for ids in objects.values())


class TestSharedEmptyProperties:
    """Entities created without properties share one read-only empty map;
    a write gives the written entity its own dict and no other."""

    def test_empty_map_is_read_only(self):
        writes = [
            lambda m: m.__setitem__("k", 1), lambda m: m.__delitem__("k"),
            lambda m: m.update(k=1), lambda m: m.setdefault("k", 1),
            lambda m: m.pop("k", None), lambda m: m.popitem(), lambda m: m.clear(),
            lambda m: m.__ior__({"k": 1}),
        ]
        for write in writes:
            with pytest.raises(TypeError):
                write(EMPTY_PROPERTIES)
        assert EMPTY_PROPERTIES == {} and dict(EMPTY_PROPERTIES) == {}
        assert json.dumps(EMPTY_PROPERTIES) == "{}"
        for same in (copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))):
            assert same(EMPTY_PROPERTIES) is EMPTY_PROPERTIES
        assert validate_properties(None) == {}
        assert validate_properties({"k": None}) is EMPTY_PROPERTIES

    def test_set_leaves_other_entities_empty(self, store):
        engine = CypherEngine(store)
        engine.run("CREATE (:T)-[:R]->(:T), (:T)-[:R]->(:T)")
        nodes, rels = list(store.all_nodes()), list(store.all_relationships())
        assert all(e.properties is EMPTY_PROPERTIES for e in nodes + rels)
        engine.run("MATCH (a:T)-[r:R]->(b:T) WHERE id(a) = 0 SET a.k = 1, r.w = 2")
        assert [n.properties for n in nodes] == [{"k": 1}, {}, {}, {}]
        assert [r.properties for r in rels] == [{"w": 2}, {}]
        store.set_node_property(0, "k", None)
        store.set_relationship_property(rels[1].rel_id, "gone", None)
        assert [n.properties for n in nodes] == [{}, {}, {}, {}]
        assert EMPTY_PROPERTIES == {}
        fresh = GraphStore()
        a, b = fresh.create_node(["T"]), fresh.create_node(["T"], {"k": None})
        rel = fresh.create_relationship(a.node_id, "R", b.node_id)
        assert a.properties == b.properties == rel.properties == {}


class TestScanSnapshot:
    """A scan yields the entities present when it started, whatever is
    created or set while the consumer is still pulling rows."""

    @pytest.fixture()
    def hub(self, store):
        hub = store.create_node(["AS"])
        for _ in range(5):
            spoke = store.create_node(["AS"])
            store.create_relationship(hub.node_id, "X", spoke.node_id)
        return hub

    @pytest.mark.parametrize("scan", ["all_nodes", "nodes_by_label"])
    def test_node_scans(self, store, hub, scan):
        scans = {"all_nodes": store.all_nodes, "nodes_by_label": lambda: store.nodes_by_label("AS")}
        expected = [node.node_id for node in store.all_nodes()]
        seen = []
        for node in scans[scan]():
            seen.append(node.node_id)
            store.set_node_property(node.node_id, "k", len(seen))
            store.create_node(["AS"])
            if len(seen) > len(expected):
                break
        assert seen == expected

    def test_adjacency_scan(self, store, hub):
        expected = [rel.rel_id for rel in store.adjacent_relationships(hub.node_id, "out", ["X"])]
        seen = []
        for rel in store.adjacent_relationships(hub.node_id, "out", ["X"]):
            seen.append(rel.rel_id)
            store.set_relationship_property(rel.rel_id, "w", len(seen))
            store.create_relationship(hub.node_id, "X", rel.end_id)
            if len(seen) > len(expected):
                break
        assert seen == expected


_LABEL_SETS = [("A",), ("B",), ("A", "B")]
_REL_TYPES = ["X", "Y", "Z"]
_VALUES = [None, 0, 1]
# one, several and all types, and a type no relationship has
_TYPE_FILTERS = [None, ("X",), ("Y",), ("X", "Y"), ("X", "Y", "Z"), ("W",), ("Y", "W")]

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("node"), st.sampled_from(_LABEL_SETS), st.sampled_from(_VALUES)),
        st.tuples(
            st.just("rel"), st.integers(0, 99), st.sampled_from(_REL_TYPES), st.integers(0, 99)
        ),
        st.tuples(st.just("loop"), st.integers(0, 99), st.sampled_from(_REL_TYPES)),
        st.tuples(st.just("set"), st.integers(0, 99), st.sampled_from(_VALUES)),
        st.tuples(st.just("rel_set"), st.integers(0, 99), st.sampled_from(_VALUES)),
        st.tuples(st.just("index"), st.sampled_from(["A", "B"])),
    ),
    max_size=40,
)


def _apply(store, step):
    kind, *args = step
    node_ids = [node.node_id for node in store.all_nodes()]
    if kind == "node":
        labels, value = args
        store.create_node(labels, {} if value is None else {"k": value})
    elif kind == "rel" and node_ids:
        start, rel_type, end = args
        store.create_relationship(
            node_ids[start % len(node_ids)], rel_type, node_ids[end % len(node_ids)]
        )
    elif kind == "loop" and node_ids:
        pick, rel_type = args
        node_id = node_ids[pick % len(node_ids)]
        store.create_relationship(node_id, rel_type, node_id)
    elif kind == "set" and node_ids:
        pick, value = args
        store.set_node_property(node_ids[pick % len(node_ids)], "k", value)
    elif kind == "rel_set" and store.relationship_count:
        pick, value = args
        store.set_relationship_property(pick % store.relationship_count, "w", value)
    elif kind == "index":
        store.create_property_index(args[0], "k")


def _check_against_reference(store):
    # The tables are plain lists indexed by id; a negative, out-of-range or
    # non-integer id finds nothing and never wraps around.
    for table, lookup in ((store._nodes, store.node), (store._relationships, store.relationship)):
        for entity_id in range(-len(table) - 1, len(table) + 2):
            if 0 <= entity_id < len(table):
                assert lookup(entity_id) is table[entity_id]
            else:
                with pytest.raises(EntityNotFound):
                    lookup(entity_id)
        with pytest.raises(EntityNotFound):
            lookup("0")
    nodes, rels = list(store._nodes), list(store._relationships)
    assert all(node.node_id == i for i, node in enumerate(nodes))
    assert all(rel.rel_id == i for i, rel in enumerate(rels))
    assert (store.node_count, store.relationship_count) == (len(nodes), len(rels))
    assert list(store.all_nodes()) == nodes
    assert list(store.all_relationships()) == rels
    for label in ("A", "B"):
        labelled = [node for node in nodes if label in node.labels]
        assert list(store.nodes_by_label(label)) == labelled
        for value in _VALUES[1:]:
            assert list(store.nodes_by_property(label, "k", value)) == [
                node for node in labelled if node.properties.get("k") == value
            ]
    sides = {
        "out": lambda rel, node_id: rel.start_id == node_id,
        "in": lambda rel, node_id: rel.end_id == node_id,
        "both": lambda rel, node_id: node_id in (rel.start_id, rel.end_id),
    }
    for node in nodes:
        for direction, attached in sides.items():
            for types in _TYPE_FILTERS:
                expected = [
                    rel for rel in rels
                    if attached(rel, node.node_id) and (types is None or rel.rel_type in types)
                ]
                found = store.adjacent_relationships(node.node_id, direction, types)
                assert list(found) == expected
                assert store.degree(node.node_id, direction, types) == len(expected)
    for direction in ("out", "in"):
        by_type = {}
        for rel in rels:
            node_id = rel.start_id if direction == "out" else rel.end_id
            by_type.setdefault(rel.rel_type, {}).setdefault(node_id, []).append(rel)
        index = store.adjacency_index(direction)
        assert {t: {n: list(found) for n, found in by_node.items()}
                for t, by_node in index.items()} == by_type
    assert _empty_index_entries(store) == []
    shared = {}
    for node in nodes:
        assert shared.setdefault(node.labels, node.labels) is node.labels


class TestIdOrderInvariant:
    """Every scan equals a brute-force reference sorted by id, after any
    sequence of creates, SETs and index builds (the ``A.k`` index, built up
    front, exercises the indexed lookup; ``B.k`` the label-scan fallback
    until an ``index`` step builds its index over the nodes already there)."""

    @settings(max_examples=80, deadline=None)
    @given(steps=_steps)
    def test_scans_match_reference(self, steps):
        store = GraphStore()
        store.create_property_index("A", "k")
        for step in steps:
            _apply(store, step)
            _check_against_reference(store)


def _recount(store, indexes):
    """The statistics a store should report, recounted from its scans;
    ``indexes`` is the catalog of the property indexes built on it."""
    nodes, rels = list(store.all_nodes()), list(store.all_relationships())
    labels = {node.node_id: node.labels for node in nodes}
    endpoints, triples = Counter(), Counter()
    for rel in rels:
        starts, ends = labels[rel.start_id], labels[rel.end_id]
        endpoints.update((rel.rel_type, "out", label) for label in starts)
        endpoints.update((rel.rel_type, "in", label) for label in ends)
        triples.update((start, rel.rel_type, end) for start in starts for end in ends)
    return {
        "node_count": len(nodes),
        "relationship_count": len(rels),
        "label_counts": Counter(label for node in nodes for label in node.labels),
        "rel_type_counts": Counter(rel.rel_type for rel in rels),
        "rel_endpoint_counts": endpoints,
        "rel_triple_counts": triples,
        "indexes": frozenset(indexes),
    }


def _observed(stats):
    return {name: getattr(stats, name) for name in (
        "node_count", "relationship_count", "label_counts", "rel_type_counts",
        "rel_endpoint_counts", "rel_triple_counts", "indexes")}


def _spy_on_fold(store, delay=0.0):
    """Record the ids of the relationships each fold counts, optionally
    sleeping first so a concurrent reader can arrive mid-fold."""
    folded = []
    fold = store._fold_relationships

    def spy(rels, counts):
        time.sleep(delay)
        folded.extend(rel.rel_id for rel in rels)
        return fold(rels, counts)

    store._fold_relationships = spy
    return folded


class TestDerivedStatistics:
    """``statistics()`` derives its counts from the relationships created since
    its last fold; after any sequence of writes they equal a brute-force recount."""

    @settings(max_examples=80, deadline=None)
    @given(steps=_steps)
    def test_statistics_match_recount(self, steps):
        store = GraphStore()
        store.create_property_index("A", "k")
        indexes = {("A", "k")}
        folded = _spy_on_fold(store)
        store.statistics()
        for step in steps:
            created = store.relationship_count
            _apply(store, step)
            if step[0] == "index":
                indexes.add((step[1], "k"))
            stats = store.statistics()
            assert stats.version == store.stats_version
            assert _observed(stats) == _recount(store, indexes)
            assert store.relationship_types() == sorted(stats.rel_type_counts)
            # a create folds only the new relationship; a SET folds none
            assert folded == list(range(created, store.relationship_count))
            folded.clear()

    def test_set_reuses_counts(self, store):
        a = store.create_node(["A"])
        rel = store.create_relationship(a.node_id, "X", a.node_id)
        before = store.statistics()
        store.set_relationship_property(rel.rel_id, "w", 1)
        after = store.statistics()
        assert after.version > before.version
        assert after.rel_endpoint_counts is before.rel_endpoint_counts

    def test_concurrent_readers_fold_once(self, store):
        nodes = [store.create_node(labels).node_id for labels in _LABEL_SETS]
        store.statistics()
        folded = _spy_on_fold(store, delay=0.02)
        for i in range(60):
            store.create_relationship(nodes[i % 3], _REL_TYPES[i % 2], nodes[i // 3 % 3])
        barrier = threading.Barrier(2)
        snapshots = []

        def read():
            barrier.wait()
            snapshots.append(store.statistics())

        threads = [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        first, second = snapshots
        assert first == second
        assert _observed(first) == _recount(store, ())
        assert folded == list(range(60))
