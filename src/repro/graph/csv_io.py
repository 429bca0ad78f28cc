"""CSV import/export in the style of IYP's public dumps.

The real IYP project publishes its Neo4j database as node and relationship
CSV files (``neo4j-admin`` bulk format).  We support a simplified flavour:

* nodes file — header ``node_id,labels,<json properties>``; labels are
  ``;``-separated.
* relationships file — header ``start_id,type,end_id,<json properties>``.
* indexes file (optional) — header ``label,key``, one property index per
  row.  A dump without it imports with no indexes.

Property maps are serialised as a single JSON column so arbitrary keys and
list values round-trip losslessly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TextIO

from .store import GraphStore, _bulk_build

__all__ = ["export_graph", "import_graph", "export_to_directory", "import_from_directory"]

_NODE_HEADER = ["node_id", "labels", "properties"]
_REL_HEADER = ["start_id", "type", "end_id", "properties"]
_INDEX_HEADER = ["label", "key"]


def export_graph(
    store: GraphStore,
    nodes_file: TextIO,
    rels_file: TextIO,
    indexes_file: TextIO | None = None,
) -> None:
    """Write ``store`` to the open text files as CSV.

    ``indexes_file``, when given, receives the ``(label, key)`` property
    indexes, sorted.
    """
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
    if indexes_file is not None:
        index_writer = csv.writer(indexes_file)
        index_writer.writerow(_INDEX_HEADER)
        index_writer.writerows(sorted(store.statistics().indexes))


def import_graph(
    nodes_file: TextIO,
    rels_file: TextIO,
    indexes_file: TextIO | None = None,
) -> GraphStore:
    """Read a CSV dump back into a fresh :class:`GraphStore`.

    Node ids are remapped to fresh store ids; relationships follow the map.
    The property indexes listed in ``indexes_file`` are rebuilt; without
    it the store has none.  A malformed dump raises ``ValueError``.  The
    build runs with the cyclic GC paused, and the finished graph is frozen
    out of its scans (see :func:`~repro.graph.store._bulk_build`).
    """
    with _bulk_build():
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
            try:
                start_id = id_map[int(start_field)]
                end_id = id_map[int(end_field)]
            except KeyError as exc:
                raise ValueError(
                    f"relationships row {rel_reader.line_num} {row!r} names "
                    f"unknown node id {exc.args[0]}"
                ) from None
            store.create_relationship(
                start_id, rel_type, end_id, json.loads(properties_field)
            )

        if indexes_file is not None:
            index_reader = csv.reader(indexes_file)
            header = next(index_reader, None)
            if header != _INDEX_HEADER:
                raise ValueError(f"unexpected indexes header: {header!r}")
            for row in index_reader:
                if row:
                    label, key = row
                    store.create_property_index(label, key)
    return store


def export_to_directory(
    store: GraphStore, directory: str | Path
) -> tuple[Path, Path, Path]:
    """Export ``store`` as ``nodes.csv`` / ``relationships.csv`` / ``indexes.csv``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = (
        directory / "nodes.csv",
        directory / "relationships.csv",
        directory / "indexes.csv",
    )
    nodes_path, rels_path, indexes_path = paths
    with (
        open(nodes_path, "w", newline="") as nodes_file,
        open(rels_path, "w", newline="") as rels_file,
        open(indexes_path, "w", newline="") as indexes_file,
    ):
        export_graph(store, nodes_file, rels_file, indexes_file)
    return paths


def import_from_directory(directory: str | Path) -> GraphStore:
    """Import a dump written by :func:`export_to_directory`.

    A dump without ``indexes.csv`` imports with no property indexes.
    """
    directory = Path(directory)
    indexes_path = directory / "indexes.csv"
    with (
        open(directory / "nodes.csv", newline="") as nodes_file,
        open(directory / "relationships.csv", newline="") as rels_file,
    ):
        if not indexes_path.exists():
            return import_graph(nodes_file, rels_file)
        with open(indexes_path, newline="") as indexes_file:
            return import_graph(nodes_file, rels_file, indexes_file)
