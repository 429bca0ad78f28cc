"""Graph-node description corpus for the vector retriever.

``VectorContextRetriever`` needs "dense embeddings for node descriptions"
(paper §2).  This module renders each interesting graph node into a short
textual description including one-hop context, mirroring how graph-RAG
frameworks flatten node neighbourhoods into embeddable passages.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from operator import attrgetter

from ..graph.model import Node
from ..graph.store import GraphStore

__all__ = ["build_description_corpus", "DESCRIBED_LABELS"]

#: labels worth indexing (skip pure leaf-annotation nodes like Name/URL)
DESCRIBED_LABELS = (
    "AS", "IXP", "Country", "Organization", "Prefix", "DomainName",
    "Facility", "Tag", "Ranking",
)

_REL_PHRASES = {
    ("out", "COUNTRY"): "registered in {}",
    ("out", "ORIGINATE"): "originates {}",
    ("out", "MEMBER_OF"): "member of {}",
    ("out", "MANAGED_BY"): "managed by {}",
    ("out", "CATEGORIZED"): "categorized as {}",
    ("out", "DEPENDS_ON"): "depends on {}",
    ("out", "PEERS_WITH"): "peers with {}",
    ("out", "POPULATION"): "serves population in {}",
    ("out", "LOCATED_IN"): "located in {}",
    ("out", "RESOLVES_TO"): "resolves to {}",
    ("out", "PART_OF"): "part of {}",
    ("in", "ORIGINATE"): "originated by {}",
    ("in", "MEMBER_OF"): "has member {}",
    ("in", "MANAGED_BY"): "manages {}",
    ("in", "PEERS_WITH"): "peers with {}",
    ("in", "DEPENDS_ON"): "depended on by {}",
    ("in", "LOCATED_IN"): "hosts {}",
    ("in", "PART_OF"): "contains {}",
    ("in", "COUNTRY"): "home of {}",
}

_MAX_NEIGHBOURS_PER_PHRASE = 4

_START = attrgetter("start_id")
_NO_MAP: dict = {}


def _entity_name(node: Node) -> str:
    """A human-readable handle for a node."""
    if "AS" in node.labels and "asn" in node.properties:
        name = node.properties.get("name", "")
        return f"AS{node.properties['asn']}" + (f" ({name})" if name else "")
    for key in ("name", "prefix", "ip", "label", "country_code", "url", "id"):
        if key in node.properties:
            return str(node.properties[key])
    return f"node {node.node_id}"


def build_description_corpus(
    store: GraphStore,
    labels: tuple[str, ...] = DESCRIBED_LABELS,
) -> list[tuple[str, str, dict]]:
    """(id, description, metadata) triples for every node of ``labels``.

    A description is the node's header, then one phrase per (direction,
    relationship type) with a phrase template, in the order of each
    phrase's first relationship id, naming the first
    :data:`_MAX_NEIGHBOURS_PER_PHRASE` neighbours in id order.  A self-loop
    counts once, as outgoing.  Each node's name is rendered once per
    corpus, however many relationships name it.  The phrases come from one
    walk over the store's adjacency index, each direction's relationship
    types in turn.
    """
    name = cache(lambda node_id: _entity_name(store.node(node_id)))
    described = [(label, node) for label in labels for node in store.nodes_by_label(label)]
    phrases: dict[int, list[tuple[int, str]]] = {node.node_id: [] for _, node in described}
    outgoing = store.adjacency_index("out")
    for direction in ("out", "in"):
        neighbour = attrgetter("end_id" if direction == "out" else "start_id")
        for rel_type, by_node in store.adjacency_index(direction).items():
            template = _REL_PHRASES.get((direction, rel_type))
            if template is None:
                continue
            looped = outgoing.get(rel_type, _NO_MAP) if direction == "in" else _NO_MAP
            for node_id, rels in by_node.items():
                found = phrases.get(node_id)
                if found is None:
                    continue
                if node_id in looped and node_id in map(_START, rels):
                    # a self-loop sits in both lists of its type
                    rels = [rel for rel in rels if rel.start_id != node_id]
                    if not rels:
                        continue
                names = [name(neighbour(rel)) for rel in islice(rels, _MAX_NEIGHBOURS_PER_PHRASE)]
                extra = len(rels) - len(names)
                rendered = ", ".join(names) + (f" and {extra} more" if extra > 0 else "")
                found.append((rels[0].rel_id, template.format(rendered)))
    corpus = []
    for label, node in described:
        header = f"{name(node.node_id)} is a {sorted(node.labels)[0]} node"
        if "Country" in node.labels and "name" in node.properties:
            header = (
                f"{node.properties['name']} ({node.properties.get('country_code', '')}) "
                "is a Country node"
            )
        text = "; ".join([header, *(phrase for _, phrase in sorted(phrases[node.node_id]))])
        corpus.append(
            (f"graph-node-{node.node_id}", text, {"graph_node_id": node.node_id, "label": label})
        )
    return corpus
