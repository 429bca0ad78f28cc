"""Rule-based planner for MATCH clauses.

Per pattern part, the planner picks the anchor end and its access path from
:class:`~repro.graph.store.GraphStatistics`, a snapshot the store derives
once per graph version, so planning reads counts and never walks the graph.
Its edge counts come from groups of relationships by (type, start-label
set, end-label set), so an endpoint with several labels counts once under
each of them.  Each end ranks, best first:

1. a **bound** variable;
2. an **exact lookup**: an inline property whose value reads only variables
   bound before the part, then a WHERE ``=``, then a WHERE ``IN`` over a
   literal list; the first candidate whose ``(label, key)`` is indexed,
   else the first candidate;
3. a **label scan** of the node's smallest label;
4. an **all-nodes scan**.

The better-ranked end anchors.  When both ends are label scans, the end
with the smaller ``label_count`` plus first-hop endpoint edges (summed
from ``GraphStatistics.endpoint_count`` over the hop's types and sides)
anchors: ``(:AS)-[:MEMBER_OF]->(:IXP)`` starts at the IXPs, while
``(:AtlasProbe)-[:COUNTRY]->(:Country)`` stays on the probes because every
labelled node's ``COUNTRY`` edge arrives at Country.  Every other tie
and single-node parts go left to right.  A ``shortestPath`` part anchors
both endpoints: its start as above, then its end with the start bound.

Top-level WHERE equality, ``IN`` and range conjuncts over literals or
parameters are also pushed down to per-hop bind-time filters; the full
WHERE still runs on every matched row, so pushdown only narrows candidates.

``planner=False`` selects the fixed shape-only rule instead, the semantic
reference planned execution is checked against: no counts, no
pushdown; per end, a bound variable scores 100, else inline properties 10
plus labels 2, and the part reverses only when its last node scores
strictly higher.  The anchor is then the bound variable, an inline-property
lookup (an indexed ``(label, key)`` when one exists), a scan of the first
label, or all nodes; a ``shortestPath`` part's end gets its own, with the
start bound.

:func:`plan_query` plans every pattern part a query runs: MATCH and
OPTIONAL MATCH clauses, and the pattern predicates, ``EXISTS`` patterns
and pattern comprehensions in its expressions, each against the variables
bound where it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Union

from ..graph.store import GraphStatistics
from . import ast_nodes as ast

__all__ = ["AnchorPlan", "PartPlan", "MatchPlan", "PushedFilter", "plan_match",
           "plan_query", "extract_pushdown", "pattern_expressions", "pattern_sites"]

# Pushable WHERE values are row-independent: literals (lifted into slots
# or not) and parameters.
_LITERALS = (ast.Literal, ast.Slot)
_PUSHABLE = (*_LITERALS, ast.Parameter)


@dataclass(frozen=True)
class PushedFilter:
    """One WHERE conjunct pushed to bind time.

    ``kind`` is ``"eq"`` (``var.key = expr``), ``"in"`` (``var.key IN
    list``) or ``"range"`` (one comparison bound ``var.key OP expr`` with
    ``OP`` in ``< <= > >=``, the operator recorded in ``ops``).  ``values``
    holds one expression for equality/range, or every list element for
    ``IN``; all are literals or parameters.
    """

    key: str
    kind: str  # "eq" | "in" | "range"
    values: tuple[ast.Expr, ...]
    ops: tuple[str, ...] = ()  # range only: comparison op per value


#: Pushed filters by the variable they constrain.
Filters = dict[str, tuple[PushedFilter, ...]]


@dataclass(frozen=True)
class AnchorPlan:
    """Chosen access path for the anchor end of a pattern part.

    ``kind`` is ``"bound"``, ``"property"`` (exact-match lookup
    ``nodes_by_property(label, key, v)`` when ``indexed``, else a scan of
    the label whose candidates the bind checks),
    ``"property-in"`` (the same lookup fanned out over an ``IN`` list),
    ``"label"`` or ``"all"``.
    """

    kind: str
    variable: Optional[str] = None
    label: Optional[str] = None
    key: Optional[str] = None
    values: tuple[ast.Expr, ...] = ()
    indexed: bool = False

    def physical_operator(self) -> tuple[str, str]:
        """The ``(name, detail)`` of the AnchorScan operator serving this
        access path, as EXPLAIN, PROFILE and ``ResultSet.profile`` show it.
        A lookup with no index on its ``(label, key)`` says ``label scan``."""
        if self.kind == "bound":
            return "BoundAnchor", self.variable or ""
        if self.kind in ("property", "property-in"):
            fan_out = f" IN {len(self.values)} values" if self.kind == "property-in" else ""
            scan = "" if self.indexed else ", label scan"
            return "HashLookup", f":{self.label}.{self.key}{fan_out}{scan}"
        if self.kind == "label":
            return "LabelScan", f":{self.label}"
        return "AllNodesScan", ""


@dataclass(frozen=True)
class PartPlan:
    """Plan for one comma-separated pattern part of a MATCH."""

    reverse: bool
    anchor: AnchorPlan
    #: a shortest-path part's end access path, planned with its start bound
    end_anchor: Optional[AnchorPlan] = None


@dataclass(frozen=True)
class MatchPlan:
    """Plan for one MATCH clause: per-part plans plus pushed filters."""

    parts: tuple[PartPlan, ...]
    filters: Filters = field(default_factory=dict)
    stats_version: int = -1


def extract_pushdown(where: Optional[ast.Expr]) -> Filters:
    """Collect pushable WHERE conjuncts: equality, ``IN`` and comparisons.

    Only *top-level AND* conjuncts qualify (anything under OR/XOR/NOT must
    stay in the residual WHERE), and only with literal or parameter
    values.  Chained comparisons (``1 < a.asn <= 5``) contribute one range
    filter per qualifying adjacent pair.  Returns ``variable -> filters``.
    """
    if where is None:
        return {}
    collected: dict[str, list[PushedFilter]] = {}
    for conjunct in _conjuncts(where):
        for variable, filt in _pushable_filters(conjunct):
            collected.setdefault(variable, []).append(filt)
    return {variable: tuple(filters) for variable, filters in collected.items()}


def _conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BooleanOp) and expr.op == "AND":
        return [conjunct for operand in expr.operands for conjunct in _conjuncts(operand)]
    return [expr]


#: Each pushable comparison and its mirror image (for ``value OP var.key``).
_MIRRORED_OP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _pushable_filters(expr: ast.Expr) -> Iterable[tuple[str, PushedFilter]]:
    if isinstance(expr, ast.Comparison):
        # Each adjacent (left OP right) pair of a (possibly chained)
        # comparison is its own conjunct: pushing any qualifying pair only
        # narrows candidates, the full chain still runs in the residual WHERE.
        for op, left, right in zip(expr.ops, expr.operands, expr.operands[1:]):
            if op not in _MIRRORED_OP:
                continue
            for subject, value, subject_op in ((left, right, op), (right, left, _MIRRORED_OP[op])):
                target = _property_of_variable(subject)
                if target is not None and isinstance(value, _PUSHABLE):
                    kind, ops = ("eq", ()) if op == "=" else ("range", (subject_op,))
                    yield target[0], PushedFilter(target[1], kind, (value,), ops)
                    break
    elif isinstance(expr, ast.InList):
        target = _property_of_variable(expr.value)
        if target is None:
            return
        variable, key = target
        container = expr.container
        if isinstance(container, ast.ListLiteral) and all(
            isinstance(item, _PUSHABLE) for item in container.items
        ):
            yield variable, PushedFilter(key=key, kind="in", values=container.items)
        elif isinstance(container, ast.Parameter):
            yield variable, PushedFilter(key=key, kind="in", values=(container,))


def _property_of_variable(expr: ast.Expr) -> Optional[tuple[str, str]]:
    if isinstance(expr, ast.PropertyAccess) and isinstance(expr.subject, ast.Variable):
        return expr.subject.name, expr.key
    return None


#: Rank of each access path, best first.
_TIER = {"bound": 0, "property": 1, "property-in": 1, "label": 2, "all": 3}
_FLIP = {"out": "in", "in": "out", "both": "both"}


def _anchor(node: ast.NodePattern, stats: GraphStatistics,
            bound: frozenset[str], filters: Filters) -> AnchorPlan:
    """The best-ranked access path for ``node`` as a part anchor."""
    variable = node.variable
    if variable is not None and variable in bound:
        return AnchorPlan(kind="bound", variable=variable)
    if not node.labels:
        return AnchorPlan(kind="all", variable=variable)
    pushed = filters.get(variable, ())
    lookups = [("property", key, (expr,)) for key, expr in node.properties
               if _reads_only(expr, bound)]
    lookups += [("property", f.key, f.values) for f in pushed if f.kind == "eq"]
    # IN over a literal list fans out into probes; IN over a parameter stays
    # a bind-time filter (its size is unknown at plan time).
    lookups += [("property-in", f.key, f.values) for f in pushed
                if f.kind == "in" and all(isinstance(v, _LITERALS) for v in f.values)]
    for kind, key, values in lookups:
        for label in node.labels:
            if stats.has_index(label, key):
                return AnchorPlan(kind=kind, variable=variable, label=label,
                                  key=key, values=values, indexed=True)
    smallest = min(node.labels, key=lambda label: (stats.label_count(label), label))
    if lookups:
        kind, key, values = lookups[0]
        return AnchorPlan(kind=kind, variable=variable, label=smallest, key=key, values=values)
    # Inline properties that read the part's own variables are verified at
    # bind time.
    return AnchorPlan(kind="label", variable=variable, label=smallest)


def _reads_only(expr: Any, bound: frozenset[str]) -> bool:
    """Whether ``expr`` reads no variable outside ``bound``; one that binds
    variables of its own (a comprehension, a pattern) never qualifies."""
    cls = expr.__class__
    if cls is ast.Variable:
        return expr.name in bound
    if cls is tuple or cls is list:
        return all(_reads_only(item, bound) for item in expr)
    if isinstance(expr, _SCOPING):
        return False
    return all(_reads_only(getattr(expr, name), bound) for name in ast.CHILD_FIELDS.get(cls, ()))


def _start_bound(part: ast.PatternPart, bound: frozenset[str]) -> frozenset[str]:
    """``bound`` plus the start variable of ``part``: what a shortest-path
    part's end is planned against."""
    variable = part.nodes[0].variable
    return bound | {variable} if variable else bound


def _scan_work(anchor: AnchorPlan, rel: ast.RelPattern, direction: str,
               stats: GraphStatistics) -> int:
    """Label-scan rows plus the edges the first hop leaves them by."""
    types = rel.types or tuple(stats.rel_type_counts)
    sides = ("out", "in") if direction == "both" else (direction,)
    return stats.label_count(anchor.label) + sum(
        stats.endpoint_count(t, side, anchor.label) for t in types for side in sides
    )


def _orient(part: ast.PatternPart, stats: GraphStatistics,
            bound: frozenset[str], filters: Filters) -> PartPlan:
    """Anchor ``part`` at its better-ranked end (see the module docstring)."""
    forward = _anchor(part.nodes[0], stats, bound, filters)
    if part.shortest is not None:
        end = _anchor(part.nodes[-1], stats, _start_bound(part, bound), filters)
        return PartPlan(reverse=False, anchor=forward, end_anchor=end)
    if len(part.elements) == 1:
        return PartPlan(reverse=False, anchor=forward)
    backward = _anchor(part.nodes[-1], stats, bound, filters)
    if forward.kind == backward.kind == "label":
        first, last = part.relationships[0], part.relationships[-1]
        reverse = (_scan_work(backward, last, _FLIP[last.direction], stats)
                   < _scan_work(forward, first, first.direction, stats))
    else:
        reverse = _TIER[backward.kind] < _TIER[forward.kind]
    return PartPlan(reverse=reverse, anchor=backward if reverse else forward)


def needs_used_tracking(part: ast.PatternPart) -> bool:
    """Whether matching ``part`` must maintain the used-relationship set.

    Relationship uniqueness only bites when two hops could bind the same
    relationship; a single hop, or hops with pairwise disjoint declared
    types, never can, so the executor skips the per-step used-set unions.
    """
    rels = part.relationships
    if len(rels) <= 1:
        return False
    types = [t for rel in rels for t in rel.types]
    return not all(rel.types for rel in rels) or len(types) != len(set(types))


def fixed_anchor(node: ast.NodePattern, stats: GraphStatistics,
                 bound: frozenset[str]) -> AnchorPlan:
    """The fixed rule's access path for ``node`` (see the module docstring)."""
    variable = node.variable
    if variable in bound:
        return AnchorPlan(kind="bound", variable=variable)
    if not node.labels:
        return AnchorPlan(kind="all", variable=variable)
    if not node.properties:
        return AnchorPlan(kind="label", variable=variable, label=node.labels[0])
    indexed = [(label, key, expr) for key, expr in node.properties
               for label in node.labels if stats.has_index(label, key)]
    label, key, expr = indexed[0] if indexed else (node.labels[0], *node.properties[0])
    return AnchorPlan(kind="property", variable=variable, label=label, key=key,
                      values=(expr,), indexed=bool(indexed))


def _orient_fixed(part: ast.PatternPart, stats: GraphStatistics,
                  bound: frozenset[str], filters: Filters) -> PartPlan:
    """Anchor ``part`` by the fixed rule (see the module docstring)."""
    def score(node: ast.NodePattern) -> int:
        if node.variable in bound:
            return 100
        return (10 if node.properties else 0) + (2 if node.labels else 0)

    first, last = part.nodes[0], part.nodes[-1]
    if part.shortest is not None:
        return PartPlan(reverse=False, anchor=fixed_anchor(first, stats, bound),
                        end_anchor=fixed_anchor(last, stats, _start_bound(part, bound)))
    reverse = len(part.elements) > 1 and score(last) > score(first)
    return PartPlan(reverse=reverse, anchor=fixed_anchor(last if reverse else first, stats, bound))


def plan_match(clause: ast.MatchClause, stats: GraphStatistics,
               bound: frozenset[str] = frozenset(), planner: bool = True) -> MatchPlan:
    """Plan a whole MATCH clause against ``stats``.

    ``bound`` names variables guaranteed bound by earlier clauses; pattern
    parts see variables introduced by preceding parts of the same clause.
    ``planner=False`` applies the fixed rule and pushes nothing down.
    """
    filters = extract_pushdown(clause.where) if planner else {}
    orient = _orient if planner else _orient_fixed
    parts: list[PartPlan] = []
    visible = set(bound)
    for part in clause.pattern.parts:
        parts.append(orient(part, stats, frozenset(visible), filters))
        visible.update(part.variables)
    return MatchPlan(parts=tuple(parts), filters=filters, stats_version=stats.version)


#: A node that matches a pattern part (a MATCH clause or a pattern
#: expression) and the variables bound where it runs.
Site = tuple[Any, frozenset[str]]


def pattern_part(node: Any) -> Optional[ast.PatternPart]:
    """The pattern a pattern expression (predicate, ``EXISTS``,
    comprehension) matches; None for anything else."""
    if isinstance(node, (ast.PatternPredicate, ast.PatternComprehension)):
        return node.pattern
    if isinstance(node, ast.ExistsExpr) and isinstance(node.target, ast.PatternPart):
        return node.target
    return None


#: Pattern expressions, and expressions that bind variables for some fields.
_SCOPING = (ast.PatternPredicate, ast.PatternComprehension, ast.ExistsExpr,
            ast.ListComprehension, ast.Quantifier, ast.Reduce)
#: Fields evaluated outside the scope their expression opens.
_OUTER_FIELDS = frozenset({"source", "initial", "pattern"})


def pattern_expressions(obj: Any, scope: frozenset[str] = frozenset(),
                        found: Optional[list[Site]] = None) -> list[Site]:
    """Every pattern expression in ``obj`` (an AST node or a tuple of them).

    Each comes with the variables bound where it is evaluated, outermost
    first; ``scope`` is what is bound at ``obj``.  List comprehensions,
    quantifiers, ``reduce`` and pattern comprehensions add the variables
    they bind to the scope of their inner expressions.
    """
    found = [] if found is None else found
    cls = obj.__class__
    if cls is tuple or cls is list:
        for item in obj:
            pattern_expressions(item, scope, found)
        return found
    inner = scope
    if isinstance(obj, _SCOPING):
        part = pattern_part(obj)
        if part is not None:
            found.append((obj, scope))
            inner = scope.union(part.variables)
        elif isinstance(obj, ast.Reduce):
            inner = scope | {obj.accumulator, obj.variable}
        elif not isinstance(obj, ast.ExistsExpr):
            inner = scope | {obj.variable}
    for name in ast.CHILD_FIELDS.get(cls, ()):
        pattern_expressions(getattr(obj, name), scope if name in _OUTER_FIELDS else inner, found)
    return found


def pattern_sites(tree: Union[ast.SingleQuery, ast.UnionQuery]) -> list[Site]:
    """Every node of ``tree`` that matches a pattern part, in query order.

    Tracks which variables each clause binds, so later parts anchor on
    already-bound variables.  Depends on the tree only, so callers that
    run one tree many times can compute it once.
    """
    sites: list[Site] = []

    def expressions(obj: Any, bound: set[str]) -> None:
        if single.pattern_expressions:
            sites.extend(pattern_expressions(obj, frozenset(bound)))

    queries = tree.queries if isinstance(tree, ast.UnionQuery) else (tree,)
    for single in queries:
        bound: set[str] = set()
        for clause in single.clauses:
            if isinstance(clause, ast.MatchClause):
                sites.append((clause, frozenset(bound)))
                expressions(clause.pattern, bound)
                bound.update(clause.pattern.variables)
                expressions(clause.where, bound)
            elif isinstance(clause, ast.ProjectionClause):
                names = {item.output_name() for item in clause.items}
                expressions((clause.items, clause.skip, clause.limit), bound)
                expressions(clause.order_by, bound | names)
                # WITH * keeps everything in scope.
                bound = bound | names if clause.star else names
                if isinstance(clause, ast.WithClause):
                    expressions(clause.where, bound)
            else:
                expressions(clause, bound)
                if isinstance(clause, ast.CreateClause):
                    bound.update(clause.pattern.variables)
                elif isinstance(clause, ast.UnwindClause):
                    bound.add(clause.variable)
    return sites


def plan_query(tree: Union[ast.SingleQuery, ast.UnionQuery], stats: GraphStatistics,
               planner: bool = True,
               sites: Optional[list[Site]] = None) -> dict[int, Union[MatchPlan, PartPlan]]:
    """Plan every pattern part of ``tree``, keyed by node identity.

    ``id(clause)`` maps to a :class:`MatchPlan` for each MATCH and
    ``id(expr)`` to a :class:`PartPlan` for each pattern expression.
    ``sites`` is :func:`pattern_sites` of ``tree``, computed when not given.  The caller
    must keep ``tree`` alive for as long as it keeps the plans.
    ``planner=False`` plans every part by the fixed rule.
    """
    orient = _orient if planner else _orient_fixed
    plans: dict[int, Union[MatchPlan, PartPlan]] = {}
    for node, bound in pattern_sites(tree) if sites is None else sites:
        plans[id(node)] = (plan_match(node, stats, bound, planner)
                           if isinstance(node, ast.MatchClause)
                           else orient(pattern_part(node), stats, bound, {}))
    return plans
