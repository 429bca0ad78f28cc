"""In-memory property graph store (the repo's Neo4j substitute)."""

from .model import Node, Path, Relationship
from .schema import GraphSchema, SchemaRelationship, introspect_schema
from .store import EntityNotFound, GraphError, GraphStatistics, GraphStore

__all__ = [
    "Node",
    "Relationship",
    "Path",
    "GraphStatistics",
    "GraphStore",
    "GraphError",
    "EntityNotFound",
    "GraphSchema",
    "SchemaRelationship",
    "introspect_schema",
]
