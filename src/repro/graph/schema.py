"""Schema introspection over a :class:`~repro.graph.store.GraphStore`.

The ChatIYP prompt chain injects a textual description of the graph schema
(labels, relationship patterns, property keys) into the text-to-Cypher
prompt, exactly as LlamaIndex's Neo4j integration does.  This module derives
that description from a live store.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .store import GraphStore

__all__ = ["GraphSchema", "SchemaRelationship", "introspect_schema"]


@dataclass(frozen=True)
class SchemaRelationship:
    """One relationship pattern ``(:Start)-[:TYPE]->(:End)`` with its count."""

    start_label: str
    rel_type: str
    end_label: str
    count: int = 0
    property_keys: tuple[str, ...] = ()

    def pattern(self) -> str:
        """Render as a Cypher-style pattern string."""
        return f"(:{self.start_label})-[:{self.rel_type}]->(:{self.end_label})"


@dataclass
class GraphSchema:
    """Aggregate schema view: labels, their properties, and edge patterns."""

    node_labels: dict[str, int] = field(default_factory=dict)
    node_properties: dict[str, tuple[str, ...]] = field(default_factory=dict)
    relationships: list[SchemaRelationship] = field(default_factory=list)

    def describe(self, max_relationships: int | None = None) -> str:
        """Render the schema as the prompt text injected into the LLM.

        The format intentionally matches what graph-RAG frameworks feed to
        text-to-Cypher models: one line per label with its properties,
        followed by one line per relationship pattern.
        """
        lines = ["Node labels and properties:"]
        for label in sorted(self.node_labels):
            keys = ", ".join(self.node_properties.get(label, ()))
            lines.append(f"  (:{label} {{{keys}}})  # {self.node_labels[label]} nodes")
        lines.append("Relationship patterns:")
        rels = self.relationships
        if max_relationships is not None:
            rels = rels[:max_relationships]
        for rel in rels:
            props = ""
            if rel.property_keys:
                props = " {" + ", ".join(rel.property_keys) + "}"
            lines.append(f"  {rel.pattern()}{props}  # {rel.count} edges")
        return "\n".join(lines)

    def has_label(self, label: str) -> bool:
        """Return True if ``label`` exists in the schema."""
        return label in self.node_labels

    def relationship_types(self) -> list[str]:
        """Distinct relationship type names, sorted."""
        return sorted({rel.rel_type for rel in self.relationships})


def introspect_schema(store: GraphStore) -> GraphSchema:
    """Build a :class:`GraphSchema` of ``store``.

    Label and pattern counts come from :meth:`GraphStore.statistics`, whose
    per (start label, type, end label) counts give nodes with several labels
    one pattern per label pair.  Property keys are collected here, from the
    entities as they are now, so a ``SET`` shows up in them.
    """
    stats = store.statistics()
    schema = GraphSchema(node_labels=dict(stats.label_counts))
    label_property_keys: dict[str, set[str]] = defaultdict(set)
    for node in store.all_nodes():
        for label in node.labels:
            label_property_keys[label].update(node.properties)
    schema.node_properties = {
        label: tuple(sorted(keys)) for label, keys in label_property_keys.items()
    }

    # The keys of relationships with properties, grouped by (start labels,
    # type, end labels); only then is each group expanded to its label pairs.
    groups: dict[tuple[frozenset[str], str, frozenset[str]], set[str]] = defaultdict(set)
    node = store.node
    for rel in store.all_relationships():
        if rel.properties:
            key = (node(rel.start_id).labels, rel.rel_type, node(rel.end_id).labels)
            groups[key].update(rel.properties)
    pattern_props: dict[tuple[str, str, str], set[str]] = defaultdict(set)
    for (start_labels, rel_type, end_labels), keys in groups.items():
        for start_label in start_labels:
            for end_label in end_labels:
                pattern_props[(start_label, rel_type, end_label)].update(keys)
    schema.relationships = [
        SchemaRelationship(
            start_label=start,
            rel_type=rel_type,
            end_label=end,
            count=count,
            property_keys=tuple(sorted(pattern_props[(start, rel_type, end)])),
        )
        for (start, rel_type, end), count in sorted(stats.rel_triple_counts.items())
    ]
    return schema
