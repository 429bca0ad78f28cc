"""Cost-based planner for MATCH clauses.

Given a MATCH clause and :class:`~repro.graph.store.GraphStatistics`, the
planner chooses, per pattern part:

* the cheapest **anchor** access path — a bound variable beats an indexed
  property lookup, which beats a filtered label scan, which beats a bare
  label scan, which beats an all-nodes scan; ties break on estimated rows;
* the **traversal direction** (anchor left or right end), replacing the
  executor's old shape-only heuristic with cardinality estimates;
* **predicate pushdown**: top-level ``WHERE`` equality / ``IN`` conjuncts
  over literals or parameters become indexed anchor lookups and early
  per-hop bind-time filters.  The full WHERE expression is still evaluated
  on every matched row, so pushdown can only *narrow* candidate sets —
  planned execution is semantics-preserving by construction.

Plans are plain frozen dataclasses; the executor consumes them, ``EXPLAIN``
renders them, and ``profile()`` compares their estimates against actual
row counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from ..graph.store import GraphStatistics
from . import ast_nodes as ast

__all__ = [
    "AnchorPlan",
    "PartPlan",
    "MatchPlan",
    "PushedFilter",
    "plan_match",
    "plan_query",
    "extract_pushdown",
]

# Pushable value expressions are row-independent: literals and parameters.
_PUSHABLE = (ast.Literal, ast.Parameter)


@dataclass(frozen=True)
class PushedFilter:
    """One WHERE conjunct pushed to bind time.

    ``kind`` is ``"eq"`` (``var.key = expr``), ``"in"`` (``var.key IN
    list``), ``"range"`` (one comparison bound ``var.key OP expr`` with
    ``OP`` in ``< <= > >=``, the operator recorded in ``ops``) or
    ``"prefix"`` (``var.key STARTS WITH expr``).  ``values`` holds one
    expression for equality/range/prefix, or every list element for ``IN``.
    All expressions are literals or parameters, so they evaluate without a
    row environment.
    """

    key: str
    kind: str  # "eq" | "in" | "range" | "prefix"
    values: tuple[ast.Expr, ...]
    ops: tuple[str, ...] = ()  # range only: comparison op per value


@dataclass(frozen=True)
class AnchorPlan:
    """Chosen access path for the anchor end of a pattern part.

    ``kind`` is one of:

    * ``"bound"`` — the anchor variable is already bound upstream;
    * ``"property"`` — exact-match lookup ``nodes_by_property(label, key, v)``
      (served by the property index when ``indexed``, else a filtered
      label scan inside the store);
    * ``"property-in"`` — the same lookup fanned out over an ``IN`` list;
    * ``"label"`` — label scan;
    * ``"all"`` — all-nodes scan.
    """

    kind: str
    variable: Optional[str] = None
    label: Optional[str] = None
    key: Optional[str] = None
    values: tuple[ast.Expr, ...] = ()
    ops: tuple[str, ...] = ()  # range only: comparison op per value
    indexed: bool = False
    est_rows: float = 1.0
    est_examined: float = 1.0

    def describe(self) -> str:
        """Access-path text used by EXPLAIN (stable, test-asserted)."""
        if self.kind == "bound":
            return f"BoundVariable({self.variable})"
        if self.kind == "property":
            via = "index" if self.indexed else "label-scan"
            return f"PropertyLookup(:{self.label}.{self.key}) [{via}]"
        if self.kind == "property-in":
            via = "index" if self.indexed else "label-scan"
            return (
                f"PropertyLookup(:{self.label}.{self.key}"
                f" IN {len(self.values)} values) [{via}]"
            )
        if self.kind == "range":
            bounds = " AND ".join(
                f"{op} {_expr_text(value)}" for op, value in zip(self.ops, self.values)
            )
            return f"RangeLookup(:{self.label}.{self.key} {bounds}) [sorted-index]"
        if self.kind == "prefix":
            return (
                f"PrefixLookup(:{self.label}.{self.key}"
                f" STARTS WITH {_expr_text(self.values[0])}) [sorted-index]"
            )
        if self.kind == "label":
            return f"LabelScan(:{self.label})"
        return "AllNodesScan"

    def physical_operator(self) -> tuple[str, str]:
        """The ``(name, detail)`` pair the physical AnchorScan operator
        displays for this access path (PROFILE / ``cypher_profile``)."""
        if self.kind == "bound":
            return "BoundAnchor", self.variable or ""
        if self.kind == "property":
            return "HashLookup", f":{self.label}.{self.key}"
        if self.kind == "property-in":
            return "HashLookup", f":{self.label}.{self.key} IN {len(self.values)} values"
        if self.kind == "range":
            return "RangeLookup", f":{self.label}.{self.key}"
        if self.kind == "prefix":
            return "PrefixLookup", f":{self.label}.{self.key}"
        if self.kind == "label":
            return "LabelScan", f":{self.label}"
        return "AllNodesScan", ""


def _expr_text(expr: ast.Expr) -> str:
    """Render a pushable (literal/parameter) expression for EXPLAIN."""
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    if isinstance(expr, ast.Parameter):
        return f"${expr.name}"
    return "..."


@dataclass(frozen=True)
class PartPlan:
    """Plan for one comma-separated pattern part of a MATCH."""

    reverse: bool
    anchor: AnchorPlan
    est_rows: float = 1.0
    # Whether execution must maintain the used-relationship set for Cypher's
    # rel-uniqueness; False when the part's hop types are provably disjoint.
    needs_used: bool = True

    @property
    def direction(self) -> str:
        return "right-to-left" if self.reverse else "left-to-right"


@dataclass(frozen=True)
class MatchPlan:
    """Plan for one MATCH clause: per-part plans plus pushed filters."""

    parts: tuple[PartPlan, ...]
    filters: dict[str, tuple[PushedFilter, ...]] = field(default_factory=dict)
    stats_version: int = -1

    @property
    def est_rows(self) -> float:
        total = 1.0
        for part in self.parts:
            total *= max(part.est_rows, 0.0)
        return total


# ---------------------------------------------------------------------------
# Predicate extraction
# ---------------------------------------------------------------------------

def extract_pushdown(where: Optional[ast.Expr]) -> dict[str, tuple[PushedFilter, ...]]:
    """Collect pushable WHERE conjuncts: equality, ``IN``, comparisons, prefix.

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


def _conjuncts(expr: ast.Expr) -> Iterable[ast.Expr]:
    if isinstance(expr, ast.BooleanOp) and expr.op == "AND":
        for operand in expr.operands:
            yield from _conjuncts(operand)
    else:
        yield expr


#: Mirror image of each pushable comparison operator (for ``value OP var.key``).
_FLIPPED_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _pushable_filters(expr: ast.Expr) -> Iterable[tuple[str, PushedFilter]]:
    if isinstance(expr, ast.Comparison):
        # Each adjacent (left OP right) pair of a (possibly chained)
        # comparison is its own conjunct: pushing any qualifying pair only
        # narrows candidates, the full chain still runs in the residual
        # WHERE.
        for op, left, right in zip(expr.ops, expr.operands, expr.operands[1:]):
            if op == "=":
                for subject, value in ((left, right), (right, left)):
                    target = _property_of_variable(subject)
                    if target is not None and isinstance(value, _PUSHABLE):
                        variable, key = target
                        yield variable, PushedFilter(key=key, kind="eq", values=(value,))
                        break
            elif op in _FLIPPED_OP:
                for subject, value, subject_op in (
                    (left, right, op),
                    (right, left, _FLIPPED_OP[op]),
                ):
                    target = _property_of_variable(subject)
                    if target is not None and isinstance(value, _PUSHABLE):
                        variable, key = target
                        yield variable, PushedFilter(
                            key=key, kind="range", values=(value,), ops=(subject_op,)
                        )
                        break
        return
    if isinstance(expr, ast.StringPredicate) and expr.op == "STARTS":
        target = _property_of_variable(expr.left)
        if target is not None and isinstance(expr.right, _PUSHABLE):
            variable, key = target
            yield variable, PushedFilter(key=key, kind="prefix", values=(expr.right,))
        return
    if isinstance(expr, ast.InList):
        target = _property_of_variable(expr.value)
        if target is None:
            return
        variable, key = target
        if isinstance(expr.container, ast.ListLiteral) and all(
            isinstance(item, _PUSHABLE) for item in expr.container.items
        ):
            yield variable, PushedFilter(key=key, kind="in", values=expr.container.items)
        elif isinstance(expr.container, ast.Parameter):
            yield variable, PushedFilter(key=key, kind="in", values=(expr.container,))


def _property_of_variable(expr: ast.Expr) -> Optional[tuple[str, str]]:
    if isinstance(expr, ast.PropertyAccess) and isinstance(expr.subject, ast.Variable):
        return expr.subject.name, expr.key
    return None


# ---------------------------------------------------------------------------
# Anchor selection
# ---------------------------------------------------------------------------

def _scan_label(node: ast.NodePattern, stats: GraphStatistics) -> Optional[str]:
    """The cheapest label to scan for ``node`` (smallest cardinality)."""
    if not node.labels:
        return None
    return min(node.labels, key=lambda label: (stats.label_count(label), label))


def _candidate_lookups(
    node: ast.NodePattern,
    filters: dict[str, tuple[PushedFilter, ...]],
) -> list[tuple[str, str, tuple[ast.Expr, ...]]]:
    """Exact-match lookup candidates ``(kind, key, values)`` for ``node``.

    Inline pattern properties with pushable value expressions come first,
    then WHERE filters pushed onto the node's variable.
    """
    lookups: list[tuple[str, str, tuple[ast.Expr, ...]]] = []
    for key, expr in node.properties:
        if isinstance(expr, _PUSHABLE):
            lookups.append(("property", key, (expr,)))
    if node.variable is not None:
        for filt in filters.get(node.variable, ()):
            if filt.kind == "eq":
                lookups.append(("property", filt.key, filt.values))
            elif filt.kind == "in" and all(
                isinstance(value, ast.Literal) for value in filt.values
            ):
                # IN over literal lists fans out into index probes; IN over a
                # parameter stays a bind-time filter (size unknown at plan time).
                lookups.append(("property-in", filt.key, filt.values))
    return lookups


#: Assumed fraction of a label surviving one / two pushed range bounds.
_RANGE_SELECTIVITY = {1: 0.4, 2: 0.15}
#: Assumed fraction of a label surviving a pushed STARTS WITH prefix.
_PREFIX_SELECTIVITY = 0.05


def _candidate_ordered_lookups(
    node: ast.NodePattern,
    stats: GraphStatistics,
    filters: dict[str, tuple[PushedFilter, ...]],
) -> list[AnchorPlan]:
    """Sorted-index anchor candidates (range / prefix scans) for ``node``.

    Range filters on the same key merge into at most one lower and one
    upper bound (extra bounds stay bind-time filters); a candidate is only
    produced when some label of the node has a sorted index on the key —
    without one, a range scan degenerates to the label scan it would have
    to beat.
    """
    if node.variable is None:
        return []
    candidates: list[AnchorPlan] = []
    bounds: dict[str, dict[str, tuple[ast.Expr, str]]] = {}
    prefixes: dict[str, ast.Expr] = {}
    for filt in filters.get(node.variable, ()):
        if filt.kind == "range":
            op = filt.ops[0]
            side = "lower" if op in (">", ">=") else "upper"
            bounds.setdefault(filt.key, {}).setdefault(side, (filt.values[0], op))
        elif filt.kind == "prefix":
            prefixes.setdefault(filt.key, filt.values[0])
    for key, sides in bounds.items():
        label = next(
            (lbl for lbl in node.labels if stats.has_sorted_index(lbl, key)), None
        )
        if label is None:
            continue
        ordered = [sides[side] for side in ("lower", "upper") if side in sides]
        est = max(1.0, stats.label_count(label) * _RANGE_SELECTIVITY[len(ordered)])
        candidates.append(
            AnchorPlan(
                kind="range",
                variable=node.variable,
                label=label,
                key=key,
                values=tuple(value for value, _ in ordered),
                ops=tuple(op for _, op in ordered),
                indexed=True,
                est_rows=est,
                est_examined=est,
            )
        )
    for key, value in prefixes.items():
        label = next(
            (lbl for lbl in node.labels if stats.has_sorted_index(lbl, key)), None
        )
        if label is None:
            continue
        est = max(1.0, stats.label_count(label) * _PREFIX_SELECTIVITY)
        candidates.append(
            AnchorPlan(
                kind="prefix",
                variable=node.variable,
                label=label,
                key=key,
                values=(value,),
                indexed=True,
                est_rows=est,
                est_examined=est,
            )
        )
    return candidates


def plan_anchor(
    node: ast.NodePattern,
    stats: GraphStatistics,
    bound: frozenset[str],
    filters: dict[str, tuple[PushedFilter, ...]] | None = None,
) -> AnchorPlan:
    """Choose the cheapest access path for ``node`` as a part anchor."""
    filters = filters or {}
    if node.variable is not None and node.variable in bound:
        return AnchorPlan(
            kind="bound", variable=node.variable, est_rows=1.0, est_examined=0.0
        )

    label = _scan_label(node, stats)
    label_rows = float(stats.label_count(label)) if label else float(stats.node_count)
    lookups = _candidate_lookups(node, filters)

    best: Optional[AnchorPlan] = None
    if label is not None:
        for kind, key, values in lookups:
            indexed_label = next(
                (lbl for lbl in node.labels if stats.has_index(lbl, key)), None
            )
            use_label = indexed_label or label
            indexed = indexed_label is not None
            per_probe = stats.lookup_estimate(use_label, key) if indexed else max(
                1.0, label_rows / 10.0
            )
            probes = len(values) if kind == "property-in" else 1
            est_rows = per_probe * probes
            est_examined = est_rows if indexed else label_rows
            candidate = AnchorPlan(
                kind=kind,
                variable=node.variable,
                label=use_label,
                key=key,
                values=values,
                indexed=indexed,
                est_rows=est_rows,
                est_examined=est_examined,
            )
            if best is None or _cost(candidate) < _cost(best):
                best = candidate
        for candidate in _candidate_ordered_lookups(node, stats, filters):
            if best is None or _cost(candidate) < _cost(best):
                best = candidate
    if best is not None:
        return best
    if label is not None:
        # No exact-match lookup available: plain label scan (inline
        # properties with non-pushable values are verified at bind time).
        est = max(1.0, label_rows / 10.0) if node.properties else label_rows
        return AnchorPlan(
            kind="label",
            variable=node.variable,
            label=label,
            est_rows=est,
            est_examined=label_rows,
        )
    total = float(stats.node_count)
    est = max(1.0, total / 10.0) if node.properties else total
    return AnchorPlan(
        kind="all", variable=node.variable, est_rows=est, est_examined=total
    )


def _cost(anchor: AnchorPlan) -> tuple[float, float, int]:
    """Comparable cost: output rows first, then rows examined, then tier."""
    tier = {
        "bound": 0,
        "property": 1,
        "property-in": 1,
        "range": 2,
        "prefix": 2,
        "label": 3,
        "all": 4,
    }
    return (anchor.est_rows, anchor.est_examined, tier[anchor.kind])


# ---------------------------------------------------------------------------
# Part / clause planning
# ---------------------------------------------------------------------------

def _hop_edges(
    rel: ast.RelPattern,
    from_label: Optional[str],
    direction: str,
    stats: GraphStatistics,
) -> tuple[float, float]:
    """``(edges_per_row, type_total)`` for one hop leaving a ``from_label`` node.

    ``edges_per_row`` is the average number of edges enumerated per source
    row — the per-(type, direction, endpoint-label) statistics make this
    asymmetric: e.g. ``COUNTRY`` edges *leave* each AS about once but
    *arrive* at the 50 Country nodes from every labelled source, so the
    reverse hop touches far more edges per anchor row.
    """
    types = rel.types or tuple(stats.rel_type_counts)
    sides = ("out", "in") if direction == "both" else (direction,)
    type_total = float(sum(stats.rel_type_count(t) for t in types)) or 1.0
    if from_label is None:
        from_rows = float(max(stats.node_count, 1))
        touched = type_total * (2.0 if direction == "both" else 1.0)
    else:
        from_rows = float(max(stats.label_count(from_label), 1))
        touched = float(
            sum(stats.endpoint_count(t, side, from_label) for t in types for side in sides)
        )
    return touched / from_rows, type_total


def _node_narrowing(
    node: ast.NodePattern, filters: dict[str, tuple[PushedFilter, ...]]
) -> float:
    """Selectivity factor for inline props / pushed filters on a hop target."""
    has_filter = bool(node.properties) or bool(
        node.variable and filters.get(node.variable)
    )
    return 0.1 if has_filter else 1.0


def _walk_estimate(
    part: ast.PatternPart,
    anchor: AnchorPlan,
    reverse: bool,
    stats: GraphStatistics,
    filters: dict[str, tuple[PushedFilter, ...]],
) -> tuple[float, float]:
    """``(cost, rows)`` of executing ``part`` anchored at one end.

    Cost counts work actually done by the executor: anchor rows examined,
    plus every edge enumerated (and bind-checked) at every hop.  Rows track
    the estimated surviving bindings after each hop's label/filter checks.
    """
    nodes = list(part.nodes)
    rels = list(part.relationships)
    if reverse:
        nodes.reverse()
        rels.reverse()
    flip = {"out": "in", "in": "out", "both": "both"}
    rows = anchor.est_rows
    cost = anchor.est_examined + anchor.est_rows
    for index, rel in enumerate(rels):
        direction = flip[rel.direction] if reverse else rel.direction
        from_label = _scan_label(nodes[index], stats)
        to_node = nodes[index + 1]
        to_label = _scan_label(to_node, stats)
        edges_per_row, type_total = _hop_edges(rel, from_label, direction, stats)
        if rel.var_length:
            hops = max(rel.max_hops or rel.min_hops or 1, 1)
            if edges_per_row > 1.0:
                edges_per_row = edges_per_row**hops
        edges = rows * edges_per_row
        cost += edges
        if to_label is not None:
            opposite = flip[direction]
            if direction == "both":
                matching = sum(
                    stats.endpoint_count(t, side, to_label)
                    for t in (rel.types or tuple(stats.rel_type_counts))
                    for side in ("out", "in")
                ) / 2.0
            else:
                matching = float(
                    sum(
                        stats.endpoint_count(t, opposite, to_label)
                        for t in (rel.types or tuple(stats.rel_type_counts))
                    )
                )
            rows = edges * min(matching / type_total, 1.0)
        else:
            rows = edges
        rows *= _node_narrowing(to_node, filters)
    return cost, rows


def needs_used_tracking(part: ast.PatternPart) -> bool:
    """Whether matching ``part`` must maintain the used-relationship set.

    Cypher's relationship-uniqueness only bites when two hops of the part
    could bind the same relationship: a single hop, or hops whose declared
    type sets are pairwise disjoint, can never produce duplicates, so the
    executor can skip the per-step used-set unions.
    """
    rels = part.relationships
    if len(rels) <= 1:
        return False
    if not all(rel.types for rel in rels):
        return True
    all_types = [t for rel in rels for t in rel.types]
    return len(all_types) != len(set(all_types))


def plan_part(
    part: ast.PatternPart,
    stats: GraphStatistics,
    bound: frozenset[str],
    filters: dict[str, tuple[PushedFilter, ...]],
) -> PartPlan:
    """Plan one pattern part: pick anchor end, direction, access path.

    Direction is chosen by total estimated work (anchor rows examined plus
    edges enumerated over every hop), not just anchor cardinality — a tiny
    anchor can still lose if expanding from it touches many more edges.
    """
    nodes = part.nodes
    first, last = nodes[0], nodes[-1]
    needs_used = needs_used_tracking(part)
    forward = plan_anchor(first, stats, bound, filters)
    forward_cost, forward_rows = _walk_estimate(part, forward, False, stats, filters)
    if part.shortest is not None or len(part.elements) == 1:
        return PartPlan(
            reverse=False, anchor=forward, est_rows=forward_rows, needs_used=needs_used
        )
    backward = plan_anchor(last, stats, bound, filters)
    backward_cost, backward_rows = _walk_estimate(part, backward, True, stats, filters)
    reverse = (backward_cost, *_cost(backward)) < (forward_cost, *_cost(forward))
    if reverse:
        return PartPlan(
            reverse=True, anchor=backward, est_rows=backward_rows, needs_used=needs_used
        )
    return PartPlan(
        reverse=False, anchor=forward, est_rows=forward_rows, needs_used=needs_used
    )


def plan_match(
    clause: ast.MatchClause,
    stats: GraphStatistics,
    bound: frozenset[str] = frozenset(),
) -> MatchPlan:
    """Plan a whole MATCH clause against ``stats``.

    ``bound`` names variables guaranteed bound by earlier clauses; pattern
    parts see variables introduced by preceding parts of the same clause.
    """
    filters = extract_pushdown(clause.where)
    parts: list[PartPlan] = []
    visible = set(bound)
    for part in clause.pattern.parts:
        parts.append(plan_part(part, stats, frozenset(visible), filters))
        for element in part.elements:
            if element.variable:
                visible.add(element.variable)
        if part.path_variable:
            visible.add(part.path_variable)
    return MatchPlan(
        parts=tuple(parts), filters=filters, stats_version=stats.version
    )


def plan_query(
    tree: Union[ast.SingleQuery, ast.UnionQuery], stats: GraphStatistics
) -> dict[int, MatchPlan]:
    """Plan every MATCH clause of ``tree``; returns ``id(clause) -> plan``.

    Tracks which variables each clause binds so later MATCHes anchor on
    already-bound variables.  The mapping is keyed by clause identity; the
    caller must keep ``tree`` alive for as long as it keeps the plans.
    """
    plans: dict[int, MatchPlan] = {}
    queries = tree.queries if isinstance(tree, ast.UnionQuery) else (tree,)
    for single in queries:
        bound: set[str] = set()
        for clause in single.clauses:
            if isinstance(clause, ast.MatchClause):
                plans[id(clause)] = plan_match(clause, stats, frozenset(bound))
                for part in clause.pattern.parts:
                    for element in part.elements:
                        if element.variable:
                            bound.add(element.variable)
                    if part.path_variable:
                        bound.add(part.path_variable)
            elif isinstance(clause, ast.UnwindClause):
                bound.add(clause.variable)
            elif isinstance(clause, (ast.WithClause, ast.ReturnClause)):
                if clause.star:
                    # WITH * keeps everything in scope; nothing to remove.
                    bound.update(item.output_name() for item in clause.items)
                else:
                    bound = {item.output_name() for item in clause.items}
            elif isinstance(clause, (ast.CreateClause,)):
                for part in clause.pattern.parts:
                    for element in part.elements:
                        if element.variable:
                            bound.add(element.variable)
            elif isinstance(clause, ast.MergeClause):
                for element in clause.part.elements:
                    if element.variable:
                        bound.add(element.variable)
    return plans
