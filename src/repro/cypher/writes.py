"""Write clauses: CREATE and ``SET variable.key = expression``.

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
    whose ``store`` and ``evaluator`` it uses."""

    nodes_created = 0
    relationships_created = 0
    properties_set = 0

    def counters(self) -> dict[str, int]:
        return {
            "nodes_created": self.nodes_created,
            "relationships_created": self.relationships_created,
            "properties_set": self.properties_set,
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

    def apply_set(self, rows: list[Row], clause: ast.SetClause) -> list[Row]:
        for row in rows:
            for item in clause.items:
                target = row.get(item.variable)
                if target is None:
                    continue
                value = self.evaluator.evaluate(item.expression, row)
                if isinstance(target, Node):
                    _store_write(self.store.set_node_property, target.node_id, item.key, value)
                elif isinstance(target, Relationship):
                    _store_write(
                        self.store.set_relationship_property, target.rel_id, item.key, value
                    )
                else:
                    raise CypherTypeError(f"cannot SET property on {target!r}")
                self.properties_set += 1
        return rows


def _store_write(write: Any, *args: Any) -> Any:
    """Run one store mutation.  The store rejects a value outside the
    property value space (a map, or a list holding one) with ``TypeError``;
    Cypher reports that as a :class:`CypherTypeError`."""
    try:
        return write(*args)
    except TypeError as exc:
        raise CypherTypeError(str(exc)) from None
