"""CSV import/export in the style of IYP's public dumps.

The real IYP project publishes its Neo4j database as node and relationship
CSV files (``neo4j-admin`` bulk format).  We support a simplified flavour:

* nodes file — header ``node_id,labels,<json properties>``; labels are
  ``;``-separated.
* relationships file — header ``start_id,type,end_id,<json properties>``.

Property maps are serialised as a single JSON column so arbitrary keys and
list values round-trip losslessly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TextIO

from .store import GraphStore, _freeze_built_graph

__all__ = ["export_graph", "import_graph", "export_to_directory", "import_from_directory"]

_NODE_HEADER = ["node_id", "labels", "properties"]
_REL_HEADER = ["start_id", "type", "end_id", "properties"]


def export_graph(store: GraphStore, nodes_file: TextIO, rels_file: TextIO) -> None:
    """Write ``store`` to the two open text files as CSV."""
    node_writer = csv.writer(nodes_file)
    node_writer.writerow(_NODE_HEADER)
    for node in store.all_nodes():
        node_writer.writerow(
            [
                node.node_id,
                ";".join(sorted(node.labels)),
                json.dumps(node.properties, sort_keys=True),
            ]
        )
    rel_writer = csv.writer(rels_file)
    rel_writer.writerow(_REL_HEADER)
    for rel in store.all_relationships():
        rel_writer.writerow(
            [
                rel.start_id,
                rel.rel_type,
                rel.end_id,
                json.dumps(rel.properties, sort_keys=True),
            ]
        )


def import_graph(nodes_file: TextIO, rels_file: TextIO) -> GraphStore:
    """Read a CSV dump back into a fresh :class:`GraphStore`.

    Node ids are remapped to fresh store ids; relationships follow the map.
    The finished graph is frozen out of the cyclic GC's scans (see
    :func:`~repro.graph.store._freeze_built_graph`).
    """
    store = GraphStore()
    id_map: dict[int, int] = {}
    node_reader = csv.reader(nodes_file)
    header = next(node_reader, None)
    if header != _NODE_HEADER:
        raise ValueError(f"unexpected nodes header: {header!r}")
    for row in node_reader:
        if not row:
            continue
        original_id, labels_field, properties_field = row
        node = store.create_node(
            labels_field.split(";"), json.loads(properties_field)
        )
        id_map[int(original_id)] = node.node_id

    rel_reader = csv.reader(rels_file)
    header = next(rel_reader, None)
    if header != _REL_HEADER:
        raise ValueError(f"unexpected relationships header: {header!r}")
    for row in rel_reader:
        if not row:
            continue
        start_field, rel_type, end_field, properties_field = row
        store.create_relationship(
            id_map[int(start_field)],
            rel_type,
            id_map[int(end_field)],
            json.loads(properties_field),
        )
    _freeze_built_graph()
    return store


def export_to_directory(store: GraphStore, directory: str | Path) -> tuple[Path, Path]:
    """Export ``store`` as ``nodes.csv`` / ``relationships.csv`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    nodes_path = directory / "nodes.csv"
    rels_path = directory / "relationships.csv"
    with open(nodes_path, "w", newline="") as nodes_file:
        with open(rels_path, "w", newline="") as rels_file:
            export_graph(store, nodes_file, rels_file)
    return nodes_path, rels_path


def import_from_directory(directory: str | Path) -> GraphStore:
    """Import a dump previously written by :func:`export_to_directory`."""
    directory = Path(directory)
    with open(directory / "nodes.csv", newline="") as nodes_file:
        with open(directory / "relationships.csv", newline="") as rels_file:
            return import_graph(nodes_file, rels_file)
