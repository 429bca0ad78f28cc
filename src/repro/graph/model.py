"""Core data model of the property graph store.

The model mirrors Neo4j's: a graph is a set of *nodes*, each carrying one or
more *labels* and a property map, connected by directed, typed
*relationships* that carry their own property map.  Property values are
restricted to the Cypher value space (``None``, booleans, integers, floats,
strings, and homogeneous lists thereof).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

__all__ = [
    "Node",
    "Relationship",
    "Path",
    "validate_property_value",
    "validate_properties",
    "EMPTY_PROPERTIES",
]

_SCALAR_TYPES = (bool, int, float, str)


class _EmptyProperties(dict):
    """The read-only empty property map (see :data:`EMPTY_PROPERTIES`).

    A ``dict`` subclass, so reads stay C-level and ``json.dumps``,
    ``dict(...)`` and ``== {}`` work; every mutator raises ``TypeError``.
    Copies and unpickled graphs keep the one instance.
    """

    __slots__ = ()

    def __reduce__(self) -> str:
        return "EMPTY_PROPERTIES"

    def _read_only(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("the shared empty property map is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


#: The one property map of every node and relationship created without
#: properties.  The store gives an entity its own dict on its first write.
EMPTY_PROPERTIES: dict[str, Any] = _EmptyProperties()


def validate_property_value(value: Any) -> Any:
    """Validate (and return) a single property value.

    Raises:
        TypeError: if the value is outside the supported value space.
    """
    if value is None or isinstance(value, _SCALAR_TYPES):
        return value
    if isinstance(value, (list, tuple)):
        return [validate_property_value(item) for item in value]
    raise TypeError(
        f"unsupported property value type: {type(value).__name__!s} ({value!r})"
    )


def validate_properties(properties: Mapping[str, Any] | None) -> dict[str, Any]:
    """Validate a property map, dropping ``None`` values like Neo4j does.

    A map left empty is :data:`EMPTY_PROPERTIES`, which is read-only.
    """
    if not properties:
        return EMPTY_PROPERTIES
    validated = {}
    for key, value in properties.items():
        if not isinstance(key, str) or not key:
            raise TypeError(f"property keys must be non-empty strings, got {key!r}")
        value = validate_property_value(value)
        if value is not None:
            validated[key] = value
    return validated or EMPTY_PROPERTIES


class Node:
    """A graph node: identity, labels and a property map.

    Nodes are created through :class:`~repro.graph.store.GraphStore`; their
    identity (``node_id``) is unique within one store.  Equality and hashing
    are by identity, matching Cypher semantics where two distinct nodes with
    identical labels and properties are still different entities.
    """

    __slots__ = ("node_id", "labels", "properties")

    def __init__(
        self,
        node_id: int,
        labels: Iterable[str],
        properties: Mapping[str, Any] | None = None,
    ) -> None:
        self.node_id = node_id
        self.labels = frozenset(labels)
        self.properties = validate_properties(properties)

    def get(self, key: str, default: Any = None) -> Any:
        """Return property ``key`` or ``default``."""
        return self.properties.get(key, default)

    def has_label(self, label: str) -> bool:
        """Return True if the node carries ``label``."""
        return label in self.labels

    def __getitem__(self, key: str) -> Any:
        return self.properties[key]

    def __contains__(self, key: str) -> bool:
        return key in self.properties

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.node_id == self.node_id

    def __hash__(self) -> int:
        return hash(("node", self.node_id))

    def __repr__(self) -> str:
        labels = ":".join(sorted(self.labels))
        return f"Node(id={self.node_id}, labels=:{labels}, properties={self.properties!r})"


class Relationship:
    """A directed, typed relationship between two nodes.

    ``start_id``/``end_id`` reference node identities in the owning store.
    Like nodes, relationships compare and hash by identity.
    """

    __slots__ = ("rel_id", "rel_type", "start_id", "end_id", "properties")

    def __init__(
        self,
        rel_id: int,
        rel_type: str,
        start_id: int,
        end_id: int,
        properties: Mapping[str, Any] | None = None,
    ) -> None:
        if not rel_type or not isinstance(rel_type, str):
            raise TypeError(f"relationship type must be a non-empty string, got {rel_type!r}")
        self.rel_id = rel_id
        self.rel_type = rel_type
        self.start_id = start_id
        self.end_id = end_id
        self.properties = validate_properties(properties)

    def get(self, key: str, default: Any = None) -> Any:
        """Return property ``key`` or ``default``."""
        return self.properties.get(key, default)

    def other_end(self, node_id: int) -> int:
        """Return the node id at the opposite end from ``node_id``."""
        if node_id == self.start_id:
            return self.end_id
        if node_id == self.end_id:
            return self.start_id
        raise ValueError(f"node {node_id} is not an endpoint of relationship {self.rel_id}")

    def __getitem__(self, key: str) -> Any:
        return self.properties[key]

    def __contains__(self, key: str) -> bool:
        return key in self.properties

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relationship) and other.rel_id == self.rel_id

    def __hash__(self) -> int:
        return hash(("rel", self.rel_id))

    def __repr__(self) -> str:
        return (
            f"Relationship(id={self.rel_id}, type={self.rel_type},"
            f" {self.start_id}->{self.end_id}, properties={self.properties!r})"
        )


class Path:
    """An alternating node/relationship sequence, as bound by ``p = (a)-[]->(b)``.

    A path always has ``len(nodes) == len(relationships) + 1``.  The path
    *length* is its relationship count (Cypher's ``length(p)``).
    """

    __slots__ = ("nodes", "relationships")

    def __init__(self, nodes: list[Node], relationships: list[Relationship]) -> None:
        if len(nodes) != len(relationships) + 1:
            raise ValueError(
                f"invalid path: {len(nodes)} nodes vs {len(relationships)} relationships"
            )
        self.nodes = list(nodes)
        self.relationships = list(relationships)

    @property
    def length(self) -> int:
        """Number of relationships in the path."""
        return len(self.relationships)

    @property
    def start_node(self) -> Node:
        return self.nodes[0]

    @property
    def end_node(self) -> Node:
        return self.nodes[-1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Path)
            and other.nodes == self.nodes
            and other.relationships == self.relationships
        )

    def __hash__(self) -> int:
        return hash(
            (
                tuple(node.node_id for node in self.nodes),
                tuple(rel.rel_id for rel in self.relationships),
            )
        )

    def __repr__(self) -> str:
        return f"Path(length={self.length}, nodes={[n.node_id for n in self.nodes]})"
