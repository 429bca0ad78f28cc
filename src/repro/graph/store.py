"""In-memory property graph store — the repo's Neo4j substitute.

``GraphStore`` owns all nodes and relationships, maintains label and
adjacency indexes, and offers the low-level scan/expand primitives the
Cypher executor is built on.  It is deliberately single-threaded and
in-memory: IYP-scale synthetic graphs (tens of thousands of nodes) fit
comfortably, and determinism matters more than concurrency for
reproduction.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Optional

from .model import Node, Relationship, validate_properties

__all__ = ["GraphStore", "GraphStatistics", "GraphError", "EntityNotFound"]

# Mirrors repro.cypher.values._TYPE_RANK for the orderable scalar types a
# sorted index can serve.  Kept local so the graph layer stays independent
# of the Cypher value module (which imports graph.model).
_ORDER_RANK: dict[type, int] = {int: 0, float: 0, str: 1, bool: 2}

#: Sorts after any node id within the same key (bisect upper-bound sentinel).
_ID_INF = float("inf")


def _order_key(value: Any) -> Optional[tuple]:
    """Total-order key for an indexable property value, or None if unorderable.

    Numbers, strings and booleans get the same relative order Cypher's
    ORDER BY gives them (rank bands, numeric coercion); lists of orderable
    scalars order element-wise.  Anything else (maps, mixed nesting) is
    unindexable and the owning node is left out of the sorted index —
    range scans never need it because comparing such values yields null.
    """
    if isinstance(value, bool):
        return (_ORDER_RANK[bool], value)
    if isinstance(value, (int, float)):
        return (_ORDER_RANK[int], float(value))
    if isinstance(value, str):
        return (_ORDER_RANK[str], value)
    if isinstance(value, list):
        keys = []
        for item in value:
            item_key = _order_key(item)
            if item_key is None:
                return None
            keys.append(item_key)
        return (3, tuple(keys))
    return None


class _SortedIndex:
    """Sorted ``(order_key, node_id)`` pairs for one ``(label, key)``.

    Built lazily from the live label index; ``ids`` tracks which nodes the
    pairs cover so ordered scans can enumerate the *leftovers* (nodes of
    the label whose property is missing or unorderable — the rows ORDER BY
    puts in the null band).
    """

    __slots__ = ("pairs", "ids")

    def __init__(self, pairs: list[tuple[tuple, int]], ids: set[int]) -> None:
        self.pairs = pairs
        self.ids = ids

    def range_ids(
        self,
        lower: Any = None,
        upper: Any = None,
        include_lower: bool = True,
        include_upper: bool = True,
    ) -> Iterator[int]:
        """Node ids with ``lower OP value OP upper``, in (value, id) order.

        Bounds restrict the scan to the bound's type band (rank), exactly
        the set of values Cypher can compare non-null against the bound.
        """
        pairs = self.pairs
        if lower is None and upper is None:
            # Unbounded: every orderable value qualifies.
            yield from self.ordered_ids()
            return
        bound = lower if lower is not None else upper
        bound_key = _order_key(bound)
        if bound_key is None:
            return
        rank = bound_key[0]
        if lower is not None and upper is not None:
            upper_key = _order_key(upper)
            if upper_key is None or upper_key[0] != rank:
                return
        lo = bisect_left(pairs, ((rank,),))
        hi = bisect_left(pairs, ((rank + 1,),))
        if lower is not None:
            lower_key = _order_key(lower)
            probe = (lower_key,) if include_lower else (lower_key, _ID_INF)
            lo = max(lo, bisect_left(pairs, probe, lo, hi))
        if upper is not None:
            upper_key = _order_key(upper)
            probe = (upper_key, _ID_INF) if include_upper else (upper_key,)
            hi = min(hi, bisect_left(pairs, probe, lo, hi))
        for index in range(lo, hi):
            yield pairs[index][1]

    def prefix_ids(self, prefix: str) -> Iterator[int]:
        """Node ids whose string value starts with ``prefix``, value order.

        Strings sharing a prefix are contiguous in the sorted band, so the
        scan starts at the prefix and stops at the first non-match.
        """
        pairs = self.pairs
        rank = _ORDER_RANK[str]
        start = bisect_left(pairs, ((rank, prefix),))
        for index in range(start, len(pairs)):
            key, node_id = pairs[index]
            if key[0] != rank or not key[1].startswith(prefix):
                break
            yield node_id

    def ordered_ids(self, descending: bool = False) -> Iterator[int]:
        """Every indexed node id in (value, id) order (reversed for DESC)."""
        source = reversed(self.pairs) if descending else self.pairs
        for _, node_id in source:
            yield node_id


class GraphError(Exception):
    """Base error for graph-store failures."""


class EntityNotFound(GraphError, KeyError):
    """A node or relationship id does not exist in the store."""


@dataclass(frozen=True)
class GraphStatistics:
    """Snapshot of store-level statistics for query planning.

    ``version`` increments on every mutation, so planners can cache plans
    keyed on it and replan only when the graph actually changed.
    ``index_selectivity`` maps an indexed ``(label, key)`` pair to the
    average number of nodes per distinct value — the expected row count of
    an exact-match index lookup.
    """

    version: int
    node_count: int
    relationship_count: int
    label_counts: Mapping[str, int] = field(default_factory=dict)
    rel_type_counts: Mapping[str, int] = field(default_factory=dict)
    indexes: frozenset[tuple[str, str]] = frozenset()
    sorted_indexes: frozenset[tuple[str, str]] = frozenset()
    index_selectivity: Mapping[tuple[str, str], float] = field(default_factory=dict)
    # (rel_type, "out"|"in", label) -> edges of that type whose start ("out")
    # or end ("in") node carries the label.  Lets the planner see that e.g.
    # COUNTRY edges arrive at Country nodes from many source labels, so
    # expanding from the Country side enumerates far more edges.
    rel_endpoint_counts: Mapping[tuple[str, str, str], int] = field(
        default_factory=dict
    )

    def label_count(self, label: str) -> int:
        """Number of nodes carrying ``label`` (0 when unknown)."""
        return self.label_counts.get(label, 0)

    def rel_type_count(self, rel_type: str) -> int:
        """Number of relationships of ``rel_type`` (0 when unknown)."""
        return self.rel_type_counts.get(rel_type, 0)

    def has_index(self, label: str, key: str) -> bool:
        """True when an exact-match property index exists for ``(label, key)``."""
        return (label, key) in self.indexes

    def has_sorted_index(self, label: str, key: str) -> bool:
        """True when an ordered (range-capable) index exists for ``(label, key)``."""
        return (label, key) in self.sorted_indexes

    def lookup_estimate(self, label: str, key: str) -> float:
        """Expected rows from an index lookup on ``(label, key)``."""
        return self.index_selectivity.get((label, key), 1.0)

    def endpoint_count(self, rel_type: str, direction: str, label: str | None) -> int:
        """Edges of ``rel_type`` whose ``direction``-side endpoint has ``label``.

        ``direction="out"`` counts by start-node label, ``"in"`` by end-node
        label; ``label=None`` returns the total for the type.
        """
        if label is None:
            return self.rel_type_count(rel_type)
        return self.rel_endpoint_counts.get((rel_type, direction, label), 0)


class GraphStore:
    """Mutable in-memory property graph with label and adjacency indexes.

    Example::

        store = GraphStore()
        as_node = store.create_node(["AS"], {"asn": 2497})
        jp = store.create_node(["Country"], {"country_code": "JP"})
        store.create_relationship(as_node.node_id, "COUNTRY", jp.node_id)
    """

    def __init__(self) -> None:
        self._nodes: dict[int, Node] = {}
        self._relationships: dict[int, Relationship] = {}
        self._next_node_id = 0
        self._next_rel_id = 0
        # label -> set of node ids
        self._label_index: dict[str, set[int]] = defaultdict(set)
        # node id -> rel ids (by direction)
        self._outgoing: dict[int, set[int]] = defaultdict(set)
        self._incoming: dict[int, set[int]] = defaultdict(set)
        # node id -> rel type -> rel ids (typed adjacency, both directions),
        # so type-restricted expansion never filters in Python per edge
        self._outgoing_typed: dict[int, dict[str, set[int]]] = {}
        self._incoming_typed: dict[int, dict[str, set[int]]] = {}
        # rel type -> live relationship count (for planner statistics)
        self._rel_type_counts: Counter[str] = Counter()
        # (rel type, "out"|"in", endpoint label) -> live edge count
        self._rel_endpoint_counts: Counter[tuple[str, str, str]] = Counter()
        # (label, property key, value) exact-match index, built lazily
        self._property_index: dict[tuple[str, str], dict[Any, set[int]]] = {}
        # (label, property key) -> lazily built sorted index (None = stale).
        # Invalidated per affected pair by the node mutation paths, so
        # relationship churn never forces a rebuild.
        self._sorted_index: dict[tuple[str, str], Optional[_SortedIndex]] = {}
        # bumped on every mutation; statistics()/plan caches key on it
        self._stats_version = 0
        self._stats_cache: GraphStatistics | None = None
        # (node id, direction, rel types) -> sorted relationship tuple,
        # memoising the union+sort of adjacency sets; cleared on mutation
        self._adjacency_cache: dict[
            tuple[int, str, tuple[str, ...] | None], tuple[Relationship, ...]
        ] = {}
        # label -> id-ordered node-id tuple, memoising the per-scan sort of
        # the label index; cleared on mutation.  The streaming executor
        # opens a fresh label scan per anchor row, so this sort is per-row
        # work without the cache.
        self._label_scan_cache: dict[str, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Creation / mutation
    # ------------------------------------------------------------------

    def create_node(
        self,
        labels: Iterable[str],
        properties: Mapping[str, Any] | None = None,
    ) -> Node:
        """Create and index a node; returns the new :class:`Node`."""
        labels = tuple(labels)
        if not labels:
            raise GraphError("a node needs at least one label")
        node = Node(self._next_node_id, labels, properties)
        self._next_node_id += 1
        self._nodes[node.node_id] = node
        for label in node.labels:
            self._label_index[label].add(node.node_id)
            for key in node.properties:
                index = self._property_index.get((label, key))
                if index is not None:
                    index[self._index_key(node.properties[key])].add(node.node_id)
                self._invalidate_sorted(label, key)
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
        if start_id not in self._nodes:
            raise EntityNotFound(f"start node {start_id} does not exist")
        if end_id not in self._nodes:
            raise EntityNotFound(f"end node {end_id} does not exist")
        rel = Relationship(self._next_rel_id, rel_type, start_id, end_id, properties)
        self._next_rel_id += 1
        self._relationships[rel.rel_id] = rel
        self._outgoing[start_id].add(rel.rel_id)
        self._incoming[end_id].add(rel.rel_id)
        self._outgoing_typed.setdefault(start_id, {}).setdefault(rel_type, set()).add(rel.rel_id)
        self._incoming_typed.setdefault(end_id, {}).setdefault(rel_type, set()).add(rel.rel_id)
        self._rel_type_counts[rel_type] += 1
        for label in self._nodes[start_id].labels:
            self._rel_endpoint_counts[(rel_type, "out", label)] += 1
        for label in self._nodes[end_id].labels:
            self._rel_endpoint_counts[(rel_type, "in", label)] += 1
        self._touch()
        return rel

    def set_node_property(self, node_id: int, key: str, value: Any) -> None:
        """Set (or with ``value=None`` remove) a property on a node."""
        node = self.node(node_id)
        old = node.properties.get(key)
        if value is None:
            node.properties.pop(key, None)
        else:
            node.properties.update(validate_properties({key: value}))
        for label in node.labels:
            self._invalidate_sorted(label, key)
            index = self._property_index.get((label, key))
            if index is None:
                continue
            if old is not None:
                index[self._index_key(old)].discard(node_id)
            if value is not None:
                index[self._index_key(value)].add(node_id)
        self._touch()

    def set_relationship_property(self, rel_id: int, key: str, value: Any) -> None:
        """Set (or with ``value=None`` remove) a property on a relationship."""
        rel = self.relationship(rel_id)
        if value is None:
            rel.properties.pop(key, None)
        else:
            rel.properties.update(validate_properties({key: value}))

    def delete_relationship(self, rel_id: int) -> None:
        """Remove a relationship from the store and its adjacency indexes."""
        rel = self._relationships.pop(rel_id, None)
        if rel is None:
            raise EntityNotFound(f"relationship {rel_id} does not exist")
        self._outgoing[rel.start_id].discard(rel_id)
        self._incoming[rel.end_id].discard(rel_id)
        out_bucket = self._outgoing_typed.get(rel.start_id, {}).get(rel.rel_type)
        if out_bucket is not None:
            out_bucket.discard(rel_id)
        in_bucket = self._incoming_typed.get(rel.end_id, {}).get(rel.rel_type)
        if in_bucket is not None:
            in_bucket.discard(rel_id)
        self._rel_type_counts[rel.rel_type] -= 1
        if self._rel_type_counts[rel.rel_type] <= 0:
            del self._rel_type_counts[rel.rel_type]
        for side, node_id in (("out", rel.start_id), ("in", rel.end_id)):
            node = self._nodes.get(node_id)
            if node is None:
                continue
            for label in node.labels:
                key = (rel.rel_type, side, label)
                self._rel_endpoint_counts[key] -= 1
                if self._rel_endpoint_counts[key] <= 0:
                    del self._rel_endpoint_counts[key]
        self._touch()

    def delete_node(self, node_id: int, detach: bool = False) -> None:
        """Remove a node.

        Args:
            detach: also remove attached relationships (Cypher's
                ``DETACH DELETE``).  Without it, deleting a connected node
                raises :class:`GraphError`.
        """
        node = self._nodes.get(node_id)
        if node is None:
            raise EntityNotFound(f"node {node_id} does not exist")
        attached = list(self._outgoing.get(node_id, ())) + list(
            self._incoming.get(node_id, ())
        )
        if attached and not detach:
            raise GraphError(
                f"cannot delete node {node_id}: it still has {len(attached)} relationships"
            )
        for rel_id in attached:
            if rel_id in self._relationships:
                self.delete_relationship(rel_id)
        del self._nodes[node_id]
        for label in node.labels:
            self._label_index[label].discard(node_id)
            for key, value in node.properties.items():
                index = self._property_index.get((label, key))
                if index is not None:
                    index[self._index_key(value)].discard(node_id)
                self._invalidate_sorted(label, key)
        self._outgoing.pop(node_id, None)
        self._incoming.pop(node_id, None)
        self._outgoing_typed.pop(node_id, None)
        self._incoming_typed.pop(node_id, None)
        self._touch()

    def create_property_index(self, label: str, key: str) -> None:
        """Build an exact-match index over ``(label, key)`` for fast lookups."""
        if (label, key) in self._property_index:
            return
        index: dict[Any, set[int]] = defaultdict(set)
        for node_id in self._label_index.get(label, ()):
            node = self._nodes[node_id]
            if key in node.properties:
                index[self._index_key(node.properties[key])].add(node_id)
        self._property_index[(label, key)] = index
        self._touch()

    def has_property_index(self, label: str, key: str) -> bool:
        """True when an exact-match index exists for ``(label, key)``."""
        return (label, key) in self._property_index

    def create_sorted_index(self, label: str, key: str) -> None:
        """Register an ordered index over ``(label, key)``.

        The sorted array itself is built lazily on first range/ordered scan
        and invalidated (not eagerly rebuilt) by node mutations touching the
        pair, so registration and write-heavy phases stay cheap.  Counts as
        a mutation for :attr:`stats_version`, replanning cached queries.
        """
        if (label, key) in self._sorted_index:
            return
        self._sorted_index[(label, key)] = None
        self._touch()

    def has_sorted_index(self, label: str, key: str) -> bool:
        """True when an ordered index is registered for ``(label, key)``."""
        return (label, key) in self._sorted_index

    def _invalidate_sorted(self, label: str, key: str) -> None:
        """Mark the sorted index for ``(label, key)`` stale, if registered."""
        if (label, key) in self._sorted_index:
            self._sorted_index[(label, key)] = None

    def _sorted(self, label: str, key: str) -> Optional[_SortedIndex]:
        """The (lazily re/built) sorted index, or None when not registered.

        Building is a read-side operation: it must not bump
        :attr:`stats_version`, or every rebuild would invalidate plan and
        answer caches and re-stale itself.
        """
        if (label, key) not in self._sorted_index:
            return None
        built = self._sorted_index[(label, key)]
        if built is None:
            pairs: list[tuple[tuple, int]] = []
            ids: set[int] = set()
            for node_id in self._label_index.get(label, ()):
                properties = self._nodes[node_id].properties
                if key not in properties:
                    continue
                order_key = _order_key(properties[key])
                if order_key is None:
                    continue
                pairs.append((order_key, node_id))
                ids.add(node_id)
            pairs.sort()
            built = _SortedIndex(pairs, ids)
            self._sorted_index[(label, key)] = built
        return built

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        """Return the node with ``node_id`` or raise :class:`EntityNotFound`."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise EntityNotFound(f"node {node_id} does not exist") from None

    def relationship(self, rel_id: int) -> Relationship:
        """Return the relationship with ``rel_id`` or raise :class:`EntityNotFound`."""
        try:
            return self._relationships[rel_id]
        except KeyError:
            raise EntityNotFound(f"relationship {rel_id} does not exist") from None

    def has_node(self, node_id: int) -> bool:
        """Return True if ``node_id`` exists."""
        return node_id in self._nodes

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
        return sorted(label for label, ids in self._label_index.items() if ids)

    def relationship_types(self) -> list[str]:
        """All relationship types present, sorted."""
        return sorted(self._rel_type_counts)

    @property
    def stats_version(self) -> int:
        """Monotone counter bumped by every mutation (plan-cache key)."""
        return self._stats_version

    def statistics(self) -> GraphStatistics:
        """Current graph statistics (label/type cardinalities, index catalog).

        The snapshot is cached and rebuilt only after a mutation, so the
        query planner can call this on every query for free.
        """
        if self._stats_cache is not None and self._stats_cache.version == self._stats_version:
            return self._stats_cache
        selectivity = {
            (label, key): (len(self._label_index.get(label, ())) / len(index)) if index else 1.0
            for (label, key), index in self._property_index.items()
        }
        self._stats_cache = GraphStatistics(
            version=self._stats_version,
            node_count=len(self._nodes),
            relationship_count=len(self._relationships),
            label_counts={
                label: len(ids) for label, ids in self._label_index.items() if ids
            },
            rel_type_counts=dict(self._rel_type_counts),
            indexes=frozenset(self._property_index),
            sorted_indexes=frozenset(self._sorted_index),
            index_selectivity=selectivity,
            rel_endpoint_counts=dict(self._rel_endpoint_counts),
        )
        return self._stats_cache

    # ------------------------------------------------------------------
    # Scans (the executor's access paths)
    # ------------------------------------------------------------------

    def all_nodes(self) -> Iterator[Node]:
        """Iterate every node in insertion (id) order."""
        for node_id in sorted(self._nodes):
            yield self._nodes[node_id]

    def all_relationships(self) -> Iterator[Relationship]:
        """Iterate every relationship in insertion (id) order."""
        for rel_id in sorted(self._relationships):
            yield self._relationships[rel_id]

    def nodes_by_label(self, label: str) -> Iterator[Node]:
        """Iterate nodes carrying ``label`` in id order (lazily).

        The id-ordered scan list is memoised per label (cleared on any
        mutation), and iteration walks a stable snapshot — a streaming
        consumer abandoning the scan early pays only for the rows pulled.
        """
        ordered = self._label_scan_cache.get(label)
        if ordered is None:
            ordered = tuple(sorted(self._label_index.get(label, ())))
            self._label_scan_cache[label] = ordered
        nodes = self._nodes
        for node_id in ordered:
            yield nodes[node_id]

    def nodes_by_property(self, label: str, key: str, value: Any) -> Iterator[Node]:
        """Iterate nodes with ``label`` whose ``key`` equals ``value``.

        Uses the property index when one exists; otherwise falls back to a
        label scan.
        """
        index = self._property_index.get((label, key))
        if index is not None:
            for node_id in sorted(index.get(self._index_key(value), ())):
                yield self._nodes[node_id]
            return
        for node in self.nodes_by_label(label):
            if node.properties.get(key) == value:
                yield node

    def nodes_in_range(
        self,
        label: str,
        key: str,
        lower: Any = None,
        upper: Any = None,
        include_lower: bool = True,
        include_upper: bool = True,
    ) -> Iterator[Node]:
        """Iterate nodes with ``label`` whose ``key`` lies within the bounds.

        With a sorted index, a bisected slice in (value, id) order touching
        only matching nodes; otherwise a label scan filtered in Python (id
        order).  Matching follows Cypher comparison semantics: only values
        of the bound's type band can match, everything else compares null.
        """
        index = self._sorted(label, key)
        if index is not None:
            for node_id in index.range_ids(lower, upper, include_lower, include_upper):
                yield self._nodes[node_id]
            return
        lower_key = _order_key(lower) if lower is not None else None
        upper_key = _order_key(upper) if upper is not None else None
        for node in self.nodes_by_label(label):
            if key not in node.properties:
                continue
            value_key = _order_key(node.properties[key])
            if value_key is None:
                continue
            if lower_key is not None:
                if value_key[0] != lower_key[0]:
                    continue
                if value_key < lower_key or (value_key == lower_key and not include_lower):
                    continue
            if upper_key is not None:
                if value_key[0] != upper_key[0]:
                    continue
                if value_key > upper_key or (value_key == upper_key and not include_upper):
                    continue
            yield node

    def nodes_by_prefix(self, label: str, key: str, prefix: str) -> Iterator[Node]:
        """Iterate nodes with ``label`` whose string ``key`` starts with ``prefix``.

        Served by a bisected run of the sorted index when one exists (value
        order), else a filtered label scan (id order).
        """
        index = self._sorted(label, key)
        if index is not None:
            for node_id in index.prefix_ids(prefix):
                yield self._nodes[node_id]
            return
        for node in self.nodes_by_label(label):
            value = node.properties.get(key)
            if isinstance(value, str) and value.startswith(prefix):
                yield node

    def nodes_in_order(
        self, label: str, key: str, descending: bool = False
    ) -> Optional[Iterator[Node]]:
        """Iterate **all** nodes of ``label`` ordered by ``key`` (nulls last ASC).

        Requires a sorted index on ``(label, key)``; returns None without
        one.  Nodes whose ``key`` is missing or unorderable come after the
        indexed run ascending and before it descending — the same band
        placement Cypher's ORDER BY gives null keys, so an ordered LIMIT
        scan can stream this directly.
        """
        index = self._sorted(label, key)
        if index is None:
            return None
        leftovers = sorted(self._label_index.get(label, set()) - index.ids)

        def stream() -> Iterator[Node]:
            if descending:
                for node_id in leftovers:
                    yield self._nodes[node_id]
            for node_id in index.ordered_ids(descending):
                yield self._nodes[node_id]
            if not descending:
                for node_id in leftovers:
                    yield self._nodes[node_id]

        return stream()

    def relationships_of(
        self,
        node_id: int,
        direction: str = "both",
        rel_types: Iterable[str] | None = None,
    ) -> Iterator[Relationship]:
        """Iterate relationships attached to ``node_id``.

        Args:
            direction: ``"out"``, ``"in"`` or ``"both"`` (from the node's
                point of view).
            rel_types: restrict to these relationship types (any if None).
        """
        yield from self.adjacent_relationships(node_id, direction, rel_types)

    def adjacent_relationships(
        self,
        node_id: int,
        direction: str = "both",
        rel_types: Iterable[str] | None = None,
    ) -> tuple[Relationship, ...]:
        """Like :meth:`relationships_of` but returns a cached sorted tuple.

        The executor's expansion hot path calls this once per visited node
        per hop; memoising the union+sort makes repeated traversals (and
        BFS re-visits) allocation-free.  The cache is dropped on any
        mutation.
        """
        if direction not in ("out", "in", "both"):
            raise ValueError(f"invalid direction {direction!r}")
        if rel_types is not None and not isinstance(rel_types, tuple):
            rel_types = tuple(rel_types)
        key = (node_id, direction, rel_types)
        cached = self._adjacency_cache.get(key)
        if cached is None:
            cached = tuple(
                self._relationships[rel_id]
                for rel_id in sorted(self._adjacent_ids(node_id, direction, rel_types))
            )
            self._adjacency_cache[key] = cached
        return cached

    def _adjacent_ids(
        self,
        node_id: int,
        direction: str,
        rel_types: Iterable[str] | None,
    ) -> set[int]:
        """Rel ids attached to ``node_id``, using typed buckets when possible."""
        if rel_types is None:
            rel_ids: set[int] = set()
            if direction in ("out", "both"):
                rel_ids |= self._outgoing.get(node_id, set())
            if direction in ("in", "both"):
                rel_ids |= self._incoming.get(node_id, set())
            return rel_ids
        rel_ids = set()
        if direction in ("out", "both"):
            buckets = self._outgoing_typed.get(node_id)
            if buckets:
                for rel_type in rel_types:
                    rel_ids |= buckets.get(rel_type, set())
        if direction in ("in", "both"):
            buckets = self._incoming_typed.get(node_id)
            if buckets:
                for rel_type in rel_types:
                    rel_ids |= buckets.get(rel_type, set())
        return rel_ids

    def degree(
        self,
        node_id: int,
        direction: str = "both",
        rel_types: Iterable[str] | None = None,
    ) -> int:
        """Number of attached relationships.

        Counted from the (typed) adjacency indexes without materialising or
        sorting relationship objects; directed counts are simple length
        sums, ``"both"`` unions the two sides so self-loops count once.
        """
        if direction not in ("out", "in", "both"):
            raise ValueError(f"invalid direction {direction!r}")
        if direction == "both":
            return len(self._adjacent_ids(node_id, "both", rel_types))
        if rel_types is None:
            side = self._outgoing if direction == "out" else self._incoming
            return len(side.get(node_id, ()))
        buckets = (
            self._outgoing_typed.get(node_id)
            if direction == "out"
            else self._incoming_typed.get(node_id)
        )
        if not buckets:
            return 0
        return sum(len(buckets.get(rel_type, ())) for rel_type in set(rel_types))

    def csr_metrics(self) -> dict[str, int]:  # stub: benchmarks/e2e/workloads.py calls it
        return {}

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def subgraph(self, node_ids: Iterable[int]) -> "GraphStore":
        """Extract the induced subgraph over ``node_ids`` into a new store.

        Node and relationship ids are remapped; relationships survive only
        when both endpoints are kept.  Useful for exporting a neighbourhood
        (e.g. one AS and everything one hop around it) for inspection.
        """
        wanted = set(node_ids)
        extracted = GraphStore()
        id_map: dict[int, int] = {}
        for node_id in sorted(wanted):
            node = self.node(node_id)
            copy = extracted.create_node(node.labels, dict(node.properties))
            id_map[node_id] = copy.node_id
        for rel in self.all_relationships():
            if rel.start_id in wanted and rel.end_id in wanted:
                extracted.create_relationship(
                    id_map[rel.start_id], rel.rel_type, id_map[rel.end_id],
                    dict(rel.properties),
                )
        return extracted

    def neighbourhood(self, node_id: int, hops: int = 1) -> set[int]:
        """Node ids within ``hops`` relationships of ``node_id`` (inclusive)."""
        if hops < 0:
            raise ValueError(f"hops must be non-negative, got {hops}")
        frontier = {node_id}
        seen = {node_id}
        for _ in range(hops):
            next_frontier: set[int] = set()
            for current in frontier:
                for rel in self.relationships_of(current):
                    other = rel.other_end(current)
                    if other not in seen:
                        seen.add(other)
                        next_frontier.add(other)
            frontier = next_frontier
        return seen

    # ------------------------------------------------------------------

    def _touch(self) -> None:
        """Record a mutation (invalidates statistics, plan and scan caches)."""
        self._stats_version += 1
        if self._adjacency_cache:
            self._adjacency_cache.clear()
        if self._label_scan_cache:
            self._label_scan_cache.clear()

    @staticmethod
    def _index_key(value: Any) -> Any:
        """Normalise a value for exact-match indexing (lists become tuples)."""
        if isinstance(value, list):
            return tuple(GraphStore._index_key(item) for item in value)
        return value

    def __repr__(self) -> str:
        return (
            f"GraphStore(nodes={self.node_count},"
            f" relationships={self.relationship_count},"
            f" labels={len(self.labels())})"
        )
