"""In-memory property graph store — the repo's Neo4j substitute.

``GraphStore`` owns all nodes and relationships, maintains label and
adjacency indexes, and offers the low-level scan/expand primitives the
Cypher executor is built on.  It is in-memory: IYP-scale synthetic graphs
(tens of thousands of nodes) fit comfortably.  Writes come from one thread
at a time; reads may come from many (server threads share one store), and
the one read that updates the store's own state, :meth:`GraphStore.statistics`,
takes a lock to do so.

The store is append-only: IYP is published as periodic dumps, so a graph
is built once and then read.  Nodes and relationships are created, never
deleted; the only write that changes an entity is a property ``SET``.
Every scan returns entities in id order without sorting.  Ids only grow,
and a node's labels and a relationship's type and endpoints never change.
The node and relationship tables are plain lists indexed by id, and each
label's index is a list of its nodes appended to as they are created.
Adjacency is kept per relationship type and direction:
``{rel type: {node id: [rel, ...]}}``.  A bucket (one node's relationships
of one type and direction) is appended to as relationships are created, so
it is in id order too.  A property-index bucket is a sorted list of node
ids: a SET can add a lower id, so inserts go through :func:`bisect.insort`,
and a SET that empties a value bucket drops it.  Nodes with equal labels
share one ``frozenset``, and entities without properties share one
read-only empty map (:data:`~.model.EMPTY_PROPERTIES`).

The write path keeps only what reads need: the tables, the label lists and
the adjacency maps.  Planner statistics are derived on demand, once per
graph version: :meth:`GraphStore.statistics` groups the relationships
created since its last fold by (type, start-label set, end-label set) and
adds each group's count to copies of the last snapshot's counts, under each
of its labels.  Because the store is append-only and labels never change,
a folded relationship is never revisited, and a ``SET`` folds nothing.
"""

from __future__ import annotations

import gc
import threading
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter, is_
from typing import Any, Collection, Iterable, Iterator, Mapping, Sequence

from .model import EMPTY_PROPERTIES, Node, Relationship, validate_properties

__all__ = ["GraphStore", "GraphStatistics", "GraphError", "EntityNotFound"]

#: an absent adjacency map
_NO_MAP: dict = {}
#: the directions that read one adjacency side
_ONE_SIDE = ("out", "in")
_REL_ID = attrgetter("rel_id")


@contextmanager
def _bulk_build() -> Iterator[None]:
    """Run a bulk graph build with the cyclic GC paused, then freeze the result.

    Wraps the whole body of both bulk builders (``generate_iyp``,
    ``import_graph``).  A build allocates hundreds of thousands of
    long-lived objects and frees almost none, so every collection the
    allocation counters would set off mid-build is wasted work; the store
    is acyclic (nodes and relationships refer to each other by id, never
    back to the store), and a build makes no cyclic garbage, so there is
    nothing for them to find.

    * On entry one ``gc.collect()`` frees the caller's cyclic garbage, so
      the freeze does not keep it alive; it walks the caller's unfrozen
      heap, not the new graph.  Then the collector is disabled
      (process-wide).
    * On normal exit ``gc.freeze()`` moves every object alive now, not
      just the graph, into the permanent generation, so a served
      process's full collections stop walking its graph (nodes,
      relationships, property dicts and index lists and dicts).
      Frozen objects are still freed by reference counting, and a dropped
      acyclic graph leaves no cycle for the collector to find.
    * On any exit the collector is put back as the caller had it: a caller
      that disabled it finds it still disabled.  A build that raises is
      not frozen.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
        gc.freeze()
    finally:
        if was_enabled:
            gc.enable()


def _get(table: list, entity_id: int) -> Any:
    """The entity at ``entity_id`` in an id-indexed table, or None for a
    negative, out-of-range or non-integer id (an id never wraps around)."""
    try:
        return table[entity_id] if entity_id >= 0 else None
    except (IndexError, TypeError):
        return None


def _set_property(entity: Node | Relationship, key: str, value: Any) -> None:
    """Set (or with ``value=None`` remove) property ``key`` of ``entity``.
    An entity that holds the shared empty map gets its own dict first."""
    if value is None:
        if key in entity.properties:
            del entity.properties[key]
        return
    if entity.properties is EMPTY_PROPERTIES:
        entity.properties = {}
    entity.properties.update(validate_properties({key: value}))


class GraphError(Exception):
    """Base error for graph-store failures."""


class EntityNotFound(GraphError, KeyError):
    """A node or relationship id does not exist in the store."""


@dataclass(frozen=True)
class GraphStatistics:
    """Snapshot of store-level statistics for query planning.

    ``version`` is the store's ``stats_version`` the snapshot was taken at.
    It increments on every mutation, so anything derived from the graph can
    be keyed on it and rebuilt only when the graph changed.

    The relationship counts are derived from groups of relationships with
    equal (type, start-label set, end-label set), so multi-label endpoints
    stay exact: an ``X`` edge into an ``A:B`` node counts once for ``X``,
    once under ``A`` and once under ``B``.
    """

    version: int
    node_count: int
    relationship_count: int
    label_counts: Mapping[str, int] = field(default_factory=dict)
    rel_type_counts: Mapping[str, int] = field(default_factory=dict)
    indexes: frozenset[tuple[str, str]] = frozenset()
    # (rel_type, "out"|"in", label) -> edges of that type whose start ("out")
    # or end ("in") node carries the label.  Lets the planner see that e.g.
    # COUNTRY edges arrive at Country nodes from many source labels, so
    # expanding from the Country side enumerates far more edges.
    rel_endpoint_counts: Mapping[tuple[str, str, str], int] = field(
        default_factory=dict
    )
    # (start label, rel_type, end label) -> edges of that type from a node
    # carrying the start label to one carrying the end label.  An edge
    # between multi-label nodes counts under each of its label pairs, so
    # these do not sum to the type's or an endpoint's count.
    rel_triple_counts: Mapping[tuple[str, str, str], int] = field(default_factory=dict)

    def label_count(self, label: str) -> int:
        """Number of nodes carrying ``label`` (0 when unknown)."""
        return self.label_counts.get(label, 0)

    def rel_type_count(self, rel_type: str) -> int:
        """Number of relationships of ``rel_type`` (0 when unknown)."""
        return self.rel_type_counts.get(rel_type, 0)

    def has_index(self, label: str, key: str) -> bool:
        """True when an exact-match property index exists for ``(label, key)``."""
        return (label, key) in self.indexes

    def endpoint_count(self, rel_type: str, direction: str, label: str | None) -> int:
        """Edges of ``rel_type`` whose ``direction``-side endpoint has ``label``.

        ``direction="out"`` counts by start-node label, ``"in"`` by end-node
        label; ``label=None`` returns the total for the type.
        """
        if label is None:
            return self.rel_type_count(rel_type)
        return self.rel_endpoint_counts.get((rel_type, direction, label), 0)


class GraphStore:
    """Append-only in-memory property graph with label and adjacency indexes.

    A write maintains the tables, the label lists and the adjacency maps and
    counts nothing; :meth:`statistics` derives the planner's counts once per
    graph version (see the module docstring).

    Example::

        store = GraphStore()
        as_node = store.create_node(["AS"], {"asn": 2497})
        jp = store.create_node(["Country"], {"country_code": "JP"})
        store.create_relationship(as_node.node_id, "COUNTRY", jp.node_id)
    """

    def __init__(self) -> None:
        # id -> entity; the next id is the length
        self._nodes: list[Node] = []
        self._relationships: list[Relationship] = []
        # label -> its nodes in id order
        self._label_index: dict[str, list[Node]] = {}
        # one shared frozenset per distinct label combination
        self._label_sets: dict[frozenset[str], frozenset[str]] = {}
        # rel type -> node id -> [rel, ...], one map per direction, each list
        # in id order.  An expansion that names one direction and one type
        # reads a single list; one that names no type probes each of the
        # direction's types.
        self._outgoing: dict[str, dict[int, list[Relationship]]] = {}
        self._incoming: dict[str, dict[int, list[Relationship]]] = {}
        # relationships counted in the statistics snapshot: the first _folded
        self._folded = 0
        # serialises the fold: server threads share one store
        self._stats_lock = threading.Lock()
        # (label, property key) -> value -> sorted node ids, built on
        # request; no empty value buckets
        self._property_index: dict[tuple[str, str], dict[Any, list[int]]] = {}
        # bumped on every mutation; statistics() and result memos key on it
        self._stats_version = 0
        self._stats_cache: GraphStatistics | None = None

    # ------------------------------------------------------------------
    # Creation / mutation
    # ------------------------------------------------------------------

    def create_node(
        self,
        labels: Iterable[str],
        properties: Mapping[str, Any] | None = None,
    ) -> Node:
        """Create and index a node; returns the new :class:`Node`."""
        labels = frozenset(labels)
        if not labels:
            raise GraphError("a node needs at least one label")
        labels = self._label_sets.setdefault(labels, labels)
        node_id = len(self._nodes)
        node = Node(node_id, labels, properties)
        self._nodes.append(node)
        for label in labels:
            members = self._label_index.get(label)
            if members is None:
                self._label_index[label] = [node]
            else:
                members.append(node)
            for key, value in node.properties.items():
                index = self._property_index.get((label, key))
                if index is not None:
                    self._index(index, value, node_id)
        self._touch()
        return node

    def create_relationship(
        self,
        start_id: int,
        rel_type: str,
        end_id: int,
        properties: Mapping[str, Any] | None = None,
    ) -> Relationship:
        """Create a directed relationship ``start -[type]-> end``."""
        if _get(self._nodes, start_id) is None:
            raise EntityNotFound(f"start node {start_id} does not exist")
        if _get(self._nodes, end_id) is None:
            raise EntityNotFound(f"end node {end_id} does not exist")
        rel = Relationship(len(self._relationships), rel_type, start_id, end_id, properties)
        self._relationships.append(rel)
        for side, node_id in ((self._outgoing, start_id), (self._incoming, end_id)):
            by_node = side.get(rel_type)
            if by_node is None:
                side[rel_type] = {node_id: [rel]}
            elif (bucket := by_node.get(node_id)) is None:
                by_node[node_id] = [rel]
            else:
                bucket.append(rel)
        self._touch()
        return rel

    def set_node_property(self, node_id: int, key: str, value: Any) -> None:
        """Set (or with ``value=None`` remove) a property on a node."""
        node = self.node(node_id)
        old = node.properties.get(key)
        _set_property(node, key, value)
        for label in node.labels:
            index = self._property_index.get((label, key))
            if index is None:
                continue
            if old is not None:
                self._unindex(index, old, node_id)
            if value is not None:
                self._index(index, value, node_id)
        self._touch()

    def set_relationship_property(self, rel_id: int, key: str, value: Any) -> None:
        """Set (or with ``value=None`` remove) a property on a relationship."""
        _set_property(self.relationship(rel_id), key, value)
        self._touch()

    def create_property_index(self, label: str, key: str) -> None:
        """Build an exact-match index over ``(label, key)`` for fast lookups."""
        if (label, key) in self._property_index:
            return
        index: dict[Any, list[int]] = {}
        # the label's nodes come in id order, so appending keeps buckets sorted
        for node in self._label_index.get(label, ()):
            if key in node.properties:
                value = self._index_key(node.properties[key])
                bucket = index.get(value)
                if bucket is None:
                    index[value] = [node.node_id]
                else:
                    bucket.append(node.node_id)
        self._property_index[(label, key)] = index
        self._touch()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        """Return the node with ``node_id`` or raise :class:`EntityNotFound`."""
        node = _get(self._nodes, node_id)
        if node is None:
            raise EntityNotFound(f"node {node_id} does not exist")
        return node

    def relationship(self, rel_id: int) -> Relationship:
        """Return the relationship with ``rel_id`` or raise :class:`EntityNotFound`."""
        rel = _get(self._relationships, rel_id)
        if rel is None:
            raise EntityNotFound(f"relationship {rel_id} does not exist")
        return rel

    @property
    def node_count(self) -> int:
        """Number of nodes in the store."""
        return len(self._nodes)

    @property
    def relationship_count(self) -> int:
        """Number of relationships in the store."""
        return len(self._relationships)

    def labels(self) -> list[str]:
        """All labels with at least one node, sorted."""
        return sorted(self._label_index)

    def relationship_types(self) -> list[str]:
        """All relationship types present, sorted."""
        return sorted(self._outgoing)

    @property
    def stats_version(self) -> int:
        """Monotone counter bumped by every write.  It keys the cached
        statistics, the Cypher engine's plans and result memo, and
        ``ChatIYP``'s answer cache."""
        return self._stats_version

    def statistics(self) -> GraphStatistics:
        """Current graph statistics (label/type/endpoint/triple cardinalities,
        index catalog).

        The snapshot is cached and derived again only after a mutation, so
        the query planner can call this on every query for free.  A new
        snapshot folds only the relationships created since the last one
        (none after a ``SET``); the fold runs under a lock, so concurrent
        readers never count a relationship twice.
        """
        cache = self._stats_cache
        if cache is not None and cache.version == self._stats_version:
            return cache
        with self._stats_lock:
            # The version is read before the tables: a write changes the
            # tables before it bumps the version, so they hold at least what
            # the version counts.
            version = self._stats_version
            cache = self._stats_cache
            if cache is not None and cache.version == version:
                return cache
            end = len(self._relationships)
            counts = (
                (cache.rel_type_counts, cache.rel_endpoint_counts, cache.rel_triple_counts)
                if cache is not None else ({}, {}, {})
            )
            if end > self._folded:
                counts = self._fold_relationships(self._relationships[self._folded:end], counts)
                self._folded = end
            rel_type_counts, endpoint_counts, triple_counts = counts
            self._stats_cache = GraphStatistics(
                version=version,
                node_count=len(self._nodes),
                relationship_count=end,
                label_counts={label: len(members) for label, members in self._label_index.items()},
                rel_type_counts=rel_type_counts,
                indexes=frozenset(self._property_index),
                rel_endpoint_counts=endpoint_counts,
                rel_triple_counts=triple_counts,
            )
            return self._stats_cache

    def _fold_relationships(
        self, rels: Sequence[Relationship], counts: tuple[Mapping, Mapping, Mapping]
    ) -> tuple[dict, dict, dict]:
        """``counts`` (per type, per (type, direction, endpoint label) and per
        (start label, type, end label)) plus ``rels``, none counted before, as
        new dicts.

        ``rels`` are grouped by (type, start-label set, end-label set) first,
        and each group is then added under each of its labels, so an endpoint
        with several labels counts once under each.
        """
        nodes = self._nodes
        groups: dict[tuple[str, frozenset[str], frozenset[str]], int] = {}
        for rel in rels:
            key = (rel.rel_type, nodes[rel.start_id].labels, nodes[rel.end_id].labels)
            groups[key] = groups.get(key, 0) + 1
        type_counts, endpoint_counts, triple_counts = map(dict, counts)
        for (rel_type, starts, ends), count in groups.items():
            type_counts[rel_type] = type_counts.get(rel_type, 0) + count
            for direction, labels in (("out", starts), ("in", ends)):
                for label in labels:
                    key = (rel_type, direction, label)
                    endpoint_counts[key] = endpoint_counts.get(key, 0) + count
            for start in starts:
                for end in ends:
                    key = (start, rel_type, end)
                    triple_counts[key] = triple_counts.get(key, 0) + count
        return type_counts, endpoint_counts, triple_counts

    # ------------------------------------------------------------------
    # Scans (the executor's access paths)
    # ------------------------------------------------------------------

    def all_nodes(self) -> Iterator[Node]:
        """Iterate a snapshot of every node in id order."""
        return iter(tuple(self._nodes))

    def all_relationships(self) -> Iterator[Relationship]:
        """Iterate a snapshot of every relationship in id order."""
        return iter(tuple(self._relationships))

    def nodes_by_label(self, label: str) -> Iterator[Node]:
        """Iterate a snapshot of the nodes carrying ``label``, in id order.

        The snapshot is taken at the call, so writes made while a consumer
        is still pulling rows neither show up nor break the scan.
        """
        return iter(tuple(self._label_index.get(label, ())))

    def nodes_by_property(self, label: str, key: str, value: Any) -> Iterator[Node]:
        """Iterate nodes with ``label`` whose ``key`` equals ``value``, in id order.

        Uses the property index when one exists; otherwise falls back to a
        label scan.
        """
        index = self._property_index.get((label, key))
        if index is not None:
            for node_id in tuple(index.get(self._index_key(value), ())):
                yield self._nodes[node_id]
            return
        for node in self.nodes_by_label(label):
            if node.properties.get(key) == value:
                yield node

    def adjacent_relationships(
        self,
        node_id: int,
        direction: str = "both",
        rel_types: Collection[str] | None = None,
    ) -> tuple[Relationship, ...]:
        """Relationships attached to ``node_id``, in id order.

        Args:
            direction: ``"out"``, ``"in"`` or ``"both"`` (from the node's
                point of view).
            rel_types: restrict to these relationship types (any if None).

        One direction and one type read a single adjacency list, which is
        already in id order.  Anything else merges its lists by id; a
        self-loop appears once under ``"both"``.
        """
        if direction in _ONE_SIDE and rel_types is not None and len(rel_types) == 1:
            return tuple(self._bucket(node_id, direction, rel_types))
        buckets = self._buckets(node_id, direction, rel_types)
        if len(buckets) < 2:
            return tuple(buckets[0]) if buckets else ()
        rels = sorted(chain.from_iterable(buckets), key=_REL_ID)
        if direction == "both" and True in map(is_, rels, islice(rels, 1, None)):
            # a self-loop sits in both directions' lists: keep it once
            rels = list(dict(zip(map(_REL_ID, rels), rels)).values())
        return tuple(rels)

    def adjacency_index(
        self, direction: str
    ) -> Mapping[str, Mapping[int, Sequence[Relationship]]]:
        """One direction's adjacency index: rel type -> node id -> that
        node's relationships of the type in id order, with no empty map or
        sequence.

        ``direction`` is ``"out"`` (keyed by start node) or ``"in"`` (by
        end node); a self-loop is in both.  The maps and sequences are the
        store's live index: read them, never mutate them, and do not hold
        them across writes.
        """
        if direction == "out":
            return self._outgoing
        if direction == "in":
            return self._incoming
        raise ValueError(f"invalid direction {direction!r}")

    def degree(
        self,
        node_id: int,
        direction: str = "both",
        rel_types: Collection[str] | None = None,
    ) -> int:
        """Number of attached relationships; a self-loop counts once under ``"both"``."""
        if direction in _ONE_SIDE:
            if rel_types is not None and len(rel_types) == 1:
                return len(self._bucket(node_id, direction, rel_types))
            return sum(map(len, self._buckets(node_id, direction, rel_types)))
        return len(self.adjacent_relationships(node_id, direction, rel_types))

    def _bucket(
        self, node_id: int, direction: str, rel_types: Collection[str]
    ) -> Sequence[Relationship]:
        """The one adjacency list a one-direction, one-type call reads."""
        (rel_type,) = rel_types
        side = self._outgoing if direction == "out" else self._incoming
        return side.get(rel_type, _NO_MAP).get(node_id, ())

    def _buckets(
        self,
        node_id: int,
        direction: str,
        rel_types: Collection[str] | None,
    ) -> list[list[Relationship]]:
        """The adjacency lists a ``(direction, rel_types)`` call reads."""
        if direction == "out":
            sides = (self._outgoing,)
        elif direction == "in":
            sides = (self._incoming,)
        elif direction == "both":
            sides = (self._outgoing, self._incoming)
        else:
            raise ValueError(f"invalid direction {direction!r}")
        buckets: list[list[Relationship]] = []
        for side in sides:
            if rel_types is None:
                maps = side.values()
            else:
                maps = [side.get(rel_type, _NO_MAP) for rel_type in rel_types]
            buckets += [bucket for by_node in maps if (bucket := by_node.get(node_id))]
        return buckets

    def csr_metrics(self) -> dict[str, int]:  # stub: benchmarks/e2e/workloads.py calls it
        return {}

    # ------------------------------------------------------------------

    def _touch(self) -> None:
        """Record a mutation (invalidates the statistics snapshot)."""
        self._stats_version += 1

    @classmethod
    def _index(cls, index: dict[Any, list[int]], value: Any, node_id: int) -> None:
        """Add ``node_id`` to ``value``'s bucket, keeping the bucket sorted."""
        key = cls._index_key(value)
        bucket = index.get(key)
        if bucket is None:
            index[key] = [node_id]
        else:
            insort(bucket, node_id)

    @classmethod
    def _unindex(cls, index: dict[Any, list[int]], value: Any, node_id: int) -> None:
        """Drop ``node_id`` from ``value``'s bucket, and the bucket once empty."""
        key = cls._index_key(value)
        bucket = index[key]
        bucket.remove(node_id)
        if not bucket:
            del index[key]

    @staticmethod
    def _index_key(value: Any) -> Any:
        """Normalise a value for exact-match indexing.

        Lists become tuples.  Maps become frozensets of their items: no
        stored property is a map, so a map lookup value matches no node.
        """
        if isinstance(value, list):
            return tuple(GraphStore._index_key(item) for item in value)
        if isinstance(value, dict):
            return frozenset((key, GraphStore._index_key(item)) for key, item in value.items())
        return value

    def __repr__(self) -> str:
        return (
            f"GraphStore(nodes={self.node_count},"
            f" relationships={self.relationship_count},"
            f" labels={len(self.labels())})"
        )
