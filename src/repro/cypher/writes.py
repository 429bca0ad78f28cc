"""Write clauses: CREATE, MERGE, SET, DELETE and REMOVE.

:class:`WriteClauses` is the write half of the execution context.  The
physical write barriers (:mod:`repro.cypher.operators`) hand it every
upstream row of their clause at once; it mutates the store, counts what it
changed for the result's counters, and returns the rows the clause emits.
"""

from __future__ import annotations

from typing import Any, Optional

from ..graph.model import Node, Path, Relationship
from . import ast_nodes as ast
from .errors import CypherRuntimeError, CypherSyntaxError, CypherTypeError

__all__ = ["WriteClauses"]

Row = dict[str, Any]


class WriteClauses:
    """Applies write clauses for one run; mixed into the execution context,
    whose ``store``, ``evaluator`` and ``matches`` it uses."""

    nodes_created = 0
    relationships_created = 0
    properties_set = 0
    nodes_deleted = 0
    relationships_deleted = 0

    def counters(self) -> dict[str, int]:
        return {
            "nodes_created": self.nodes_created,
            "relationships_created": self.relationships_created,
            "properties_set": self.properties_set,
            "nodes_deleted": self.nodes_deleted,
            "relationships_deleted": self.relationships_deleted,
        }

    def apply_create(self, rows: list[Row], clause: ast.CreateClause) -> list[Row]:
        output = []
        for row in rows:
            new_row = dict(row)
            for part in clause.pattern.parts:
                new_row = self._create_part(part, new_row)
            output.append(new_row)
        return output

    def _create_part(self, part: ast.PatternPart, row: Row) -> Row:
        elements = part.elements
        nodes: list[Node] = []
        rels: list[Relationship] = []
        previous: Optional[Node] = None
        pending_rel: Optional[ast.RelPattern] = None
        for element in elements:
            if isinstance(element, ast.NodePattern):
                node = self._create_or_reuse_node(element, row)
                nodes.append(node)
                if pending_rel is not None:
                    rel = self._create_rel(pending_rel, previous, node, row)
                    rels.append(rel)
                    if pending_rel.variable is not None:
                        row[pending_rel.variable] = rel
                    pending_rel = None
                previous = node
            else:
                pending_rel = element
        if part.path_variable is not None:
            row[part.path_variable] = Path(nodes, rels)
        return row

    def _create_or_reuse_node(self, node_pattern: ast.NodePattern, row: Row) -> Node:
        if node_pattern.variable is not None and node_pattern.variable in row:
            bound = row[node_pattern.variable]
            if not isinstance(bound, Node):
                raise CypherTypeError(
                    f"CREATE cannot reuse non-node variable {node_pattern.variable!r}"
                )
            if node_pattern.labels or node_pattern.properties:
                raise CypherSyntaxError(
                    "cannot specify labels or properties on a bound variable in CREATE"
                )
            return bound
        if not node_pattern.labels:
            raise CypherRuntimeError("CREATE requires at least one label on new nodes")
        properties = {
            key: self.evaluator.evaluate(expr, row) for key, expr in node_pattern.properties
        }
        node = _store_write(self.store.create_node, node_pattern.labels, properties)
        self.nodes_created += 1
        self.properties_set += len([v for v in properties.values() if v is not None])
        if node_pattern.variable is not None:
            row[node_pattern.variable] = node
        return node

    def _create_rel(
        self,
        rel_pattern: ast.RelPattern,
        start: Optional[Node],
        end: Node,
        row: Row,
    ) -> Relationship:
        if start is None:
            raise CypherRuntimeError("relationship in CREATE lacks a start node")
        if len(rel_pattern.types) != 1:
            raise CypherSyntaxError("CREATE requires exactly one relationship type")
        if rel_pattern.direction == "both":
            raise CypherSyntaxError("CREATE requires a directed relationship")
        if rel_pattern.var_length:
            raise CypherSyntaxError("CREATE cannot use variable-length relationships")
        properties = {
            key: self.evaluator.evaluate(expr, row) for key, expr in rel_pattern.properties
        }
        if rel_pattern.direction == "in":
            start, end = end, start
        rel = _store_write(
            self.store.create_relationship,
            start.node_id, rel_pattern.types[0], end.node_id, properties,
        )
        self.relationships_created += 1
        self.properties_set += len([v for v in properties.values() if v is not None])
        return rel

    def apply_merge(self, rows: list[Row], clause: ast.MergeClause) -> list[Row]:
        output: list[Row] = []
        for row in rows:
            matches = self.matches(clause, row)
            if matches:
                for matched in matches:
                    self._apply_set_items(clause.on_match, matched)
                    output.append(matched)
            else:
                created = self._create_part(clause.part, dict(row))
                self._apply_set_items(clause.on_create, created)
                output.append(created)
        return output

    def apply_set(self, rows: list[Row], clause: ast.SetClause) -> list[Row]:
        for row in rows:
            self._apply_set_items(clause.items, row)
        return rows

    def _apply_set_items(self, items: tuple[ast.SetItem, ...], row: Row) -> None:
        for item in items:
            target = row.get(item.variable)
            if target is None:
                continue
            if item.kind == "property":
                value = self.evaluator.evaluate(item.expression, row)
                self._set_property(target, item.key, value)
            elif item.kind in ("merge_map", "replace_map"):
                value = self.evaluator.evaluate(item.expression, row)
                if isinstance(value, (Node, Relationship)):
                    value = dict(value.properties)
                if not isinstance(value, dict):
                    raise CypherTypeError(f"SET {item.variable} = ... expects a map")
                if item.kind == "replace_map":
                    if not isinstance(target, (Node, Relationship)):
                        raise CypherTypeError(f"cannot SET properties on {target!r}")
                    for key in list(target.properties):
                        self._set_property(target, key, None)
                for key, val in value.items():
                    self._set_property(target, key, val)
            elif item.kind == "label":
                raise CypherRuntimeError("SET label is not supported")

    def _set_property(self, target: Any, key: str, value: Any) -> None:
        if isinstance(target, Node):
            _store_write(self.store.set_node_property, target.node_id, key, value)
        elif isinstance(target, Relationship):
            _store_write(self.store.set_relationship_property, target.rel_id, key, value)
        else:
            raise CypherTypeError(f"cannot SET property on {target!r}")
        self.properties_set += 1

    def apply_delete(self, rows: list[Row], clause: ast.DeleteClause) -> list[Row]:
        nodes_to_delete: dict[int, Node] = {}
        rels_to_delete: dict[int, Relationship] = {}
        for row in rows:
            for expr in clause.expressions:
                value = self.evaluator.evaluate(expr, row)
                if value is None:
                    continue
                if isinstance(value, Node):
                    nodes_to_delete[value.node_id] = value
                elif isinstance(value, Relationship):
                    rels_to_delete[value.rel_id] = value
                elif isinstance(value, Path):
                    for node in value.nodes:
                        nodes_to_delete[node.node_id] = node
                    for rel in value.relationships:
                        rels_to_delete[rel.rel_id] = rel
                else:
                    raise CypherTypeError(f"DELETE expects nodes/relationships, got {value!r}")
        for rel_id in rels_to_delete:
            if self.store.has_node(self.store.relationship(rel_id).start_id):
                self.store.delete_relationship(rel_id)
                self.relationships_deleted += 1
        for node_id in nodes_to_delete:
            before = self.store.relationship_count
            self.store.delete_node(node_id, detach=clause.detach)
            self.relationships_deleted += before - self.store.relationship_count
            self.nodes_deleted += 1
        return rows

    def apply_remove(self, rows: list[Row], clause: ast.RemoveClause) -> list[Row]:
        for row in rows:
            for item in clause.items:
                target = row.get(item.variable)
                if target is None:
                    continue
                if item.kind == "property":
                    self._set_property(target, item.key, None)
                else:
                    raise CypherRuntimeError("REMOVE label is not supported")
        return rows


def _store_write(write: Any, *args: Any) -> Any:
    """Run one store mutation.  The store rejects a value outside the
    property value space (a map, or a list holding one) with ``TypeError``;
    Cypher reports that as a :class:`CypherTypeError`."""
    try:
        return write(*args)
    except TypeError as exc:
        raise CypherTypeError(str(exc)) from None
