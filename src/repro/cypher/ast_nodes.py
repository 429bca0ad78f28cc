"""Abstract syntax tree of the Cypher subset.

Plain dataclasses, one per grammar production.  The executor walks these
directly; there is no separate logical-plan IR because the clause pipeline
*is* the plan for the query shapes IYP uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Optional, Union

__all__ = [
    "Expr", "Literal", "Parameter", "Variable", "PropertyAccess", "Subscript",
    "Slice", "ListLiteral", "MapLiteral", "FunctionCall", "CountStar",
    "UnaryOp", "BinaryOp", "Comparison", "BooleanOp", "NotOp", "IsNull",
    "StringPredicate", "InList", "CaseExpr", "ListComprehension",
    "PatternPredicate", "PatternComprehension", "ExistsExpr", "Quantifier", "Reduce",
    "NodePattern", "RelPattern", "PatternPart", "Pattern",
    "Clause", "MatchClause", "UnwindClause", "ReturnItem", "OrderItem",
    "ProjectionClause", "WithClause", "ReturnClause", "CreateClause",
    "MergeClause", "SetItem", "SetClause", "DeleteClause", "RemoveClause",
    "SingleQuery", "UnionQuery", "Query", "CHILD_FIELDS",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for every expression node."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: int, float, str, bool or None."""

    value: Any


@dataclass(frozen=True)
class Parameter(Expr):
    """A query parameter ``$name``."""

    name: str


@dataclass(frozen=True)
class Variable(Expr):
    """A bound variable reference."""

    name: str


@dataclass(frozen=True)
class PropertyAccess(Expr):
    """``subject.key`` — property lookup on a node, relationship or map."""

    subject: Expr
    key: str


@dataclass(frozen=True)
class Subscript(Expr):
    """``subject[index]`` — list indexing or map key lookup."""

    subject: Expr
    index: Expr


@dataclass(frozen=True)
class Slice(Expr):
    """``subject[start..end]`` — list slicing (either bound optional)."""

    subject: Expr
    start: Optional[Expr]
    end: Optional[Expr]


@dataclass(frozen=True)
class ListLiteral(Expr):
    """``[e1, e2, ...]``"""

    items: tuple[Expr, ...]


@dataclass(frozen=True)
class MapLiteral(Expr):
    """``{key: expr, ...}``"""

    items: tuple[tuple[str, Expr], ...]


@dataclass(frozen=True)
class FunctionCall(Expr):
    """``name(args...)``; ``distinct`` only matters for aggregates."""

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False


@dataclass(frozen=True)
class CountStar(Expr):
    """``count(*)``"""


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary ``-`` / ``+``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic: ``+ - * / % ^``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Comparison(Expr):
    """Chained comparison ``a < b <= c``: operands and the ops between them."""

    operands: tuple[Expr, ...]
    ops: tuple[str, ...]  # each of =, <>, <, >, <=, >=, =~


@dataclass(frozen=True)
class BooleanOp(Expr):
    """N-ary AND / OR / XOR with Cypher ternary-logic semantics."""

    op: str  # AND, OR, XOR
    operands: tuple[Expr, ...]


@dataclass(frozen=True)
class NotOp(Expr):
    """``NOT expr``"""

    operand: Expr


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``"""

    operand: Expr
    negated: bool


@dataclass(frozen=True)
class StringPredicate(Expr):
    """``a STARTS WITH b`` / ``ENDS WITH`` / ``CONTAINS``."""

    op: str  # STARTS, ENDS, CONTAINS
    left: Expr
    right: Expr


@dataclass(frozen=True)
class InList(Expr):
    """``value IN list``"""

    value: Expr
    container: Expr


@dataclass(frozen=True)
class CaseExpr(Expr):
    """Both simple (``CASE x WHEN v THEN r``) and generic CASE forms."""

    subject: Optional[Expr]
    whens: tuple[tuple[Expr, Expr], ...]
    default: Optional[Expr]


@dataclass(frozen=True)
class ListComprehension(Expr):
    """``[var IN list WHERE pred | expr]``."""

    variable: str
    source: Expr
    predicate: Optional[Expr]
    projection: Optional[Expr]


@dataclass(frozen=True)
class PatternPredicate(Expr):
    """A bare pattern used as a boolean, e.g. ``WHERE (a)-[:X]->()``."""

    pattern: "PatternPart"


@dataclass(frozen=True)
class PatternComprehension(Expr):
    """``[(a)-[:X]->(b) WHERE pred | projection]`` — one value per match."""

    pattern: "PatternPart"
    predicate: Optional[Expr]
    projection: Expr


@dataclass(frozen=True)
class Quantifier(Expr):
    """``any/all/none/single(var IN list WHERE predicate)``."""

    kind: str  # any, all, none, single
    variable: str
    source: Expr
    predicate: Expr


@dataclass(frozen=True)
class Reduce(Expr):
    """``reduce(acc = init, var IN list | expression)``."""

    accumulator: str
    initial: Expr
    variable: str
    source: Expr
    expression: Expr


@dataclass(frozen=True)
class ExistsExpr(Expr):
    """``exists(expr)`` or ``EXISTS { pattern }`` — truth of existence."""

    target: Union[Expr, "PatternPart"]


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodePattern:
    """``(var:Label1:Label2 {prop: expr})``"""

    variable: Optional[str]
    labels: tuple[str, ...]
    properties: tuple[tuple[str, Expr], ...] = ()


@dataclass(frozen=True)
class RelPattern:
    """``-[var:TYPE1|TYPE2 *min..max {prop: expr}]->``

    ``direction`` is ``"out"`` (left-to-right arrow), ``"in"`` or ``"both"``.
    ``min_hops``/``max_hops`` are None for a plain single-hop relationship.
    """

    variable: Optional[str]
    types: tuple[str, ...]
    direction: str
    properties: tuple[tuple[str, Expr], ...] = ()
    min_hops: Optional[int] = None
    max_hops: Optional[int] = None
    var_length: bool = False


@dataclass(frozen=True)
class PatternPart:
    """One comma-separated pattern: nodes and the relationships between them.

    ``elements`` alternates NodePattern / RelPattern, starting and ending
    with a node.  ``path_variable`` is set for ``p = (...)-[]-(...)``.
    ``shortest`` marks ``shortestPath(...)`` (``"single"``) or
    ``allShortestPaths(...)`` (``"all"``) wrapping.
    """

    elements: tuple[Union[NodePattern, RelPattern], ...]
    path_variable: Optional[str] = None
    shortest: Optional[str] = None

    @property
    def nodes(self) -> list[NodePattern]:
        return [e for e in self.elements if isinstance(e, NodePattern)]

    @property
    def relationships(self) -> list[RelPattern]:
        return [e for e in self.elements if isinstance(e, RelPattern)]

    @property
    def variables(self) -> list[str]:
        """Every variable name the part can introduce, path variable first."""
        names = [self.path_variable] if self.path_variable else []
        return names + [e.variable for e in self.elements if e.variable]

    @property
    def hop_count(self) -> int:
        """Number of relationship steps (var-length counts its max, min 1)."""
        hops = 0
        for rel in self.relationships:
            if rel.var_length:
                hops += max(rel.max_hops or rel.min_hops or 1, 1)
            else:
                hops += 1
        return hops


@dataclass(frozen=True)
class Pattern:
    """A comma-separated list of pattern parts, as in one MATCH clause."""

    parts: tuple[PatternPart, ...]

    @property
    def variables(self) -> list[str]:
        """Every variable name the pattern's parts can introduce."""
        return [name for part in self.parts for name in part.variables]


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------

class Clause:
    """Base class for query clauses."""

    __slots__ = ()


@dataclass(frozen=True)
class MatchClause(Clause):
    """``[OPTIONAL] MATCH pattern [WHERE predicate]``"""

    pattern: Pattern
    where: Optional[Expr] = None
    optional: bool = False


@dataclass(frozen=True)
class UnwindClause(Clause):
    """``UNWIND expr AS var``"""

    expression: Expr
    variable: str


@dataclass(frozen=True)
class ReturnItem:
    """One projection item ``expr [AS alias]``."""

    expression: Expr
    alias: Optional[str] = None

    def output_name(self) -> str:
        """The column name this item produces."""
        if self.alias:
            return self.alias
        return _expression_text(self.expression)


@dataclass(frozen=True)
class OrderItem:
    """``expr [ASC|DESC]`` inside ORDER BY."""

    expression: Expr
    descending: bool = False


@dataclass(frozen=True)
class ProjectionClause(Clause):
    """Shared shape of WITH and RETURN."""

    items: tuple[ReturnItem, ...]
    distinct: bool = False
    order_by: tuple[OrderItem, ...] = ()
    skip: Optional[Expr] = None
    limit: Optional[Expr] = None
    star: bool = False  # RETURN * / WITH *


@dataclass(frozen=True)
class WithClause(ProjectionClause):
    """``WITH ... [WHERE ...]``"""

    where: Optional[Expr] = None


@dataclass(frozen=True)
class ReturnClause(ProjectionClause):
    """``RETURN ...``"""


@dataclass(frozen=True)
class CreateClause(Clause):
    """``CREATE pattern``"""

    pattern: Pattern


@dataclass(frozen=True)
class MergeClause(Clause):
    """``MERGE pattern_part [ON CREATE SET ...] [ON MATCH SET ...]``"""

    part: PatternPart
    on_create: tuple["SetItem", ...] = ()
    on_match: tuple["SetItem", ...] = ()


@dataclass(frozen=True)
class SetItem:
    """``target.key = expr`` or ``variable += map`` or ``variable:Label``."""

    kind: str  # "property", "merge_map", "replace_map", "label"
    variable: str
    key: Optional[str] = None
    expression: Optional[Expr] = None
    labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class SetClause(Clause):
    """``SET item, item, ...``"""

    items: tuple[SetItem, ...]


@dataclass(frozen=True)
class DeleteClause(Clause):
    """``[DETACH] DELETE expr, ...``"""

    expressions: tuple[Expr, ...]
    detach: bool = False


@dataclass(frozen=True)
class RemoveClause(Clause):
    """``REMOVE n.prop`` / ``REMOVE n:Label``"""

    items: tuple[SetItem, ...]


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleQuery:
    """A linear sequence of clauses ending (usually) in RETURN.

    ``pattern_expressions`` is False only when the parser saw no pattern
    predicate, ``EXISTS`` pattern or pattern comprehension in it, so a
    walker looking for them may skip its expressions.
    """

    clauses: tuple[Clause, ...]
    pattern_expressions: bool = field(default=True, compare=False, repr=False)


@dataclass(frozen=True)
class UnionQuery:
    """``query UNION [ALL] query [...]``"""

    queries: tuple[SingleQuery, ...]
    union_all: bool = False


Query = Union[SingleQuery, UnionQuery]

#: Each node class's fields that can hold other nodes (scalar fields skipped),
#: for code that walks a tree generically.
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls) if f.type not in
               ("Any", "str", "bool", "Optional[str]", "Optional[int]", "tuple[str, ...]"))
    for cls in list(globals().values()) if isinstance(cls, type) and is_dataclass(cls)
}


# ---------------------------------------------------------------------------
# Pretty-printing (used for implicit column names and debugging)
# ---------------------------------------------------------------------------

def _expression_text(expr: Expr) -> str:
    """Render an expression roughly back to Cypher text."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            return "'" + expr.value.replace("'", "\\'") + "'"
        if expr.value is None:
            return "null"
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        return str(expr.value)
    if isinstance(expr, Variable):
        return expr.name
    if isinstance(expr, Parameter):
        return f"${expr.name}"
    if isinstance(expr, PropertyAccess):
        return f"{_expression_text(expr.subject)}.{expr.key}"
    if isinstance(expr, Subscript):
        return f"{_expression_text(expr.subject)}[{_expression_text(expr.index)}]"
    if isinstance(expr, Slice):
        start = _expression_text(expr.start) if expr.start else ""
        end = _expression_text(expr.end) if expr.end else ""
        return f"{_expression_text(expr.subject)}[{start}..{end}]"
    if isinstance(expr, ListLiteral):
        return "[" + ", ".join(_expression_text(item) for item in expr.items) + "]"
    if isinstance(expr, MapLiteral):
        inner = ", ".join(f"{key}: {_expression_text(val)}" for key, val in expr.items)
        return "{" + inner + "}"
    if isinstance(expr, CountStar):
        return "count(*)"
    if isinstance(expr, FunctionCall):
        distinct = "DISTINCT " if expr.distinct else ""
        args = ", ".join(_expression_text(arg) for arg in expr.args)
        return f"{expr.name}({distinct}{args})"
    if isinstance(expr, UnaryOp):
        return f"{expr.op}{_expression_text(expr.operand)}"
    if isinstance(expr, BinaryOp):
        return f"{_expression_text(expr.left)} {expr.op} {_expression_text(expr.right)}"
    if isinstance(expr, Comparison):
        parts = [_expression_text(expr.operands[0])]
        for op, operand in zip(expr.ops, expr.operands[1:]):
            parts.append(op)
            parts.append(_expression_text(operand))
        return " ".join(parts)
    if isinstance(expr, BooleanOp):
        return f" {expr.op} ".join(_expression_text(item) for item in expr.operands)
    if isinstance(expr, NotOp):
        return f"NOT {_expression_text(expr.operand)}"
    if isinstance(expr, IsNull):
        suffix = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{_expression_text(expr.operand)} {suffix}"
    if isinstance(expr, StringPredicate):
        word = {"STARTS": "STARTS WITH", "ENDS": "ENDS WITH", "CONTAINS": "CONTAINS"}[expr.op]
        return f"{_expression_text(expr.left)} {word} {_expression_text(expr.right)}"
    if isinstance(expr, InList):
        return f"{_expression_text(expr.value)} IN {_expression_text(expr.container)}"
    if isinstance(expr, CaseExpr):
        return "CASE ... END"
    if isinstance(expr, ListComprehension):
        return f"[{expr.variable} IN {_expression_text(expr.source)} ...]"
    if isinstance(expr, (PatternPredicate, ExistsExpr)):
        return "exists(...)"
    return repr(expr)
