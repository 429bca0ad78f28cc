"""Lowering: a parsed query plus its plans into a physical operator tree.

Each clause becomes one or more operators of :mod:`repro.cypher.operators`.
:func:`lower_part` builds every pattern part's chain, ``AnchorScan →
Expand* → Match`` (``ShortestPath`` for a shortest-path part): the parts
of MATCH and OPTIONAL MATCH, and, fed from an ``Argument`` leaf and re-run
per row, MERGE's match and every pattern predicate, ``EXISTS`` pattern
and pattern comprehension.  Such a sub-chain hangs under the operator
that evaluates it, so PROFILE shows its operators and rows.
:func:`explain` renders the clause pipeline and the same plans as text
without executing anything.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Union

from . import ast_nodes as ast
from . import operators as ops
from .errors import CypherRuntimeError, CypherSyntaxError
from .operators import RuntimeState, _contains_aggregate
from .planner import (
    Filters,
    MatchPlan,
    PartPlan,
    needs_used_tracking,
    pattern_expressions,
    pattern_part,
)

__all__ = ["explain", "lower_pattern", "lower_query"]

Plans = dict[int, Union[MatchPlan, PartPlan]]


def explain(tree: ast.Query, plans: Plans) -> str:
    """Describe how ``tree`` would execute: the clause pipeline and, per
    pattern part (MATCH, MERGE, pattern expressions), the anchor, its
    access path and the expansion direction, plus any WHERE predicates
    pushed down to bind time."""
    queries = tree.queries if isinstance(tree, ast.UnionQuery) else (tree,)
    lines = []
    for qindex, single in enumerate(queries):
        if len(queries) > 1:
            lines.append(f"UNION branch {qindex + 1}:")
        for clause in single.clauses:
            lines.extend(_explain_clause(clause, plans))
            lines.extend(
                f"  {type(expr).__name__.replace('Expr', '')} "
                f"{_explain_part(pattern_part(expr), plans[id(expr)])}"
                for expr, _ in pattern_expressions(clause)
            )
    return "\n".join(lines)


def _explain_clause(clause: ast.Clause, plans: Plans) -> list[str]:
    name = type(clause).__name__.replace("Clause", "")
    if isinstance(clause, ast.MergeClause):
        return [f"{name} {_explain_part(clause.part, plans[id(clause)])}"]
    if isinstance(clause, ast.MatchClause):
        prefix = "OptionalMatch" if clause.optional else "Match"
        plan = plans[id(clause)]
        lines = [
            f"{prefix} {_explain_part(part, part_plan)}"
            for part, part_plan in zip(clause.pattern.parts, plan.parts)
        ]
        if plan.filters:
            for variable in sorted(plan.filters):
                for filt in plan.filters[variable]:
                    op = {"eq": "=", "in": "IN"}.get(filt.kind) or filt.ops[0]
                    lines.append(f"  Pushdown {variable}.{filt.key} {op} ...")
        if clause.where is not None:
            lines.append("  Filter (WHERE)")
        return lines
    if isinstance(clause, ast.ProjectionClause):
        detail = []
        if clause.distinct:
            detail.append("distinct")
        if any(_contains_aggregate(i.expression) for i in clause.items):
            detail.append("aggregate+group")
        if clause.order_by:
            detail.append(f"sort({len(clause.order_by)} keys)")
        if clause.skip is not None:
            detail.append("skip")
        if clause.limit is not None:
            detail.append("limit")
        suffix = f" [{', '.join(detail)}]" if detail else ""
        return [f"{name} {len(clause.items)} items{suffix}"]
    return [name]


def _explain_part(part: ast.PatternPart, plan: PartPlan) -> str:
    nodes = part.nodes
    if part.shortest is not None:
        kind = "shortestPath" if part.shortest == "single" else "allShortestPaths"
        return f"{kind} BFS between {_node_text(nodes[0])} and {_node_text(nodes[-1])}"
    anchor_node = nodes[-1] if plan.reverse else nodes[0]
    direction = "right-to-left" if plan.reverse else "left-to-right"
    return (
        f"pattern({len(nodes)} nodes, {part.hop_count} hops) "
        f"anchor={_node_text(anchor_node)} via {plan.anchor.describe()}, "
        f"expand {direction}"
    )


def _node_text(node: ast.NodePattern) -> str:
    label = f":{node.labels[0]}" if node.labels else ""
    variable = node.variable or ""
    return f"({variable}{label})"


# -- Lowering: AST + plans -> physical operator tree ---------------------------

def lower_query(tree: ast.Query, context: Any, state: RuntimeState) -> ops.PhysicalOperator:
    """Lower a parsed query into its physical operator tree."""
    if isinstance(tree, ast.UnionQuery):
        branches = [
            _lower_single(query, context, state) for query in tree.queries
        ]
        return ops.UnionAppend(state, branches, tree.union_all)
    return _lower_single(tree, context, state)


def _lower_single(
    tree: ast.SingleQuery, context: Any, state: RuntimeState
) -> ops.ProduceResults:
    op: ops.PhysicalOperator = ops.Init(state)
    # Variables the clauses so far bind: what ``WITH *``/``RETURN *``
    # expand to, known before any row exists.
    scope: set[str] = set()
    # whether an updating clause runs below the current clause
    writes = False
    clauses = tree.clauses
    for index, clause in enumerate(clauses):
        if isinstance(clause, ast.MatchClause):
            op = _lower_match(op, clause, context, state)
            scope.update(clause.pattern.variables)
        elif isinstance(clause, ast.UnwindClause):
            op = _with_patterns(ops.Unwind(state, op, context, clause), context, clause)
            scope.add(clause.variable)
        elif isinstance(clause, ast.WithClause):
            op, projection = _lower_projection(
                op, clause, context, state, scope, writes
            )
            op = ops.AsRows(state, op, projection)
            if clause.where is not None:
                op = _filter(op, clause.where, context, state)
            scope = set(projection.keys)
        elif isinstance(clause, ast.ReturnClause):
            if index != len(clauses) - 1:
                raise CypherSyntaxError("RETURN must be the final clause")
            op, projection = _lower_projection(
                op, clause, context, state, scope, writes
            )
            return ops.ProduceResults(state, op, projection)
        elif type(clause) in _WRITE_OPERATORS:
            op = _WRITE_OPERATORS[type(clause)](state, op, context, clause)
            if isinstance(clause, ast.MergeClause):
                op.children.append(context.pattern_chain(clause).root)
                scope.update(clause.part.variables)
            elif isinstance(clause, ast.CreateClause):
                scope.update(clause.pattern.variables)
            _with_patterns(op, context, clause)
            writes = True
        else:  # pragma: no cover - parser cannot produce others
            raise CypherRuntimeError(f"unsupported clause {clause!r}")
    return ops.ProduceResults(state, op, None)


_WRITE_OPERATORS = {
    ast.CreateClause: ops.Create,
    ast.MergeClause: ops.Merge,
    ast.SetClause: ops.SetProperties,
    ast.DeleteClause: ops.Delete,
    ast.RemoveClause: ops.Remove,
}


def _with_patterns(op: ops.PhysicalOperator, context: Any, *exprs: Any) -> ops.PhysicalOperator:
    """``op`` with the sub-chain of each pattern expression it evaluates
    as an extra child (its first child stays its input)."""
    if context.has_subchains:
        for expr, _ in pattern_expressions(exprs):
            op.children.append(context.pattern_chain(expr).root)
    return op


def _filter(
    child: ops.PhysicalOperator, where: ast.Expr, context: Any, state: RuntimeState
) -> ops.PhysicalOperator:
    return _with_patterns(ops.Filter(state, child, context, where, pairs_in=False), context, where)


def _lower_match(
    child: ops.PhysicalOperator,
    clause: ast.MatchClause,
    context: Any,
    state: RuntimeState,
) -> ops.PhysicalOperator:
    """The clause's parts chained (each consumes the previous part's ``(row,
    used)`` pairs, threading relationship uniqueness through), then its
    WHERE.  OPTIONAL MATCH runs them as a sub-pipeline re-run once per
    upstream row, padding with nulls on no match."""
    plan = context.plans[id(clause)]
    source = ops.RowSource(state) if clause.optional else child
    parts = clause.pattern.parts
    op = source
    for index, (part, part_plan) in enumerate(zip(parts, plan.parts)):
        op = lower_part(
            op, part, part_plan, plan.filters, context, state,
            from_rows=index == 0, emit_row=index == len(parts) - 1,
            update_used=len(parts) > 1,
        )
    if clause.where is not None:
        op = _filter(op, clause.where, context, state)
    if not clause.optional:
        return op
    return ops.OptionalMatch(state, child, op, source, clause.pattern.variables)


def lower_pattern(
    part: ast.PatternPart, part_plan: PartPlan, context: Any, state: RuntimeState
) -> ops.PatternChain:
    """The chain of a pattern expression or MERGE, fed one row at a time."""
    source = ops.RowSource(state)
    root = lower_part(
        source, part, part_plan, None, context, state,
        from_rows=True, emit_row=True, update_used=False, charge_examined=True,
    )
    return ops.PatternChain(source, root)


def lower_part(
    child: ops.PhysicalOperator,
    part: ast.PatternPart,
    part_plan: PartPlan,
    filters: Optional[Filters],
    context: Any,
    state: RuntimeState,
    *,
    from_rows: bool,
    emit_row: bool,
    update_used: bool,
    charge_examined: bool = False,
) -> ops.PhysicalOperator:
    """One pattern part as an ``AnchorScan → Expand* → Match`` chain.

    ``from_rows`` says ``child`` emits plain rows rather than ``(row,
    used)`` pairs; ``emit_row`` says the chain emits plain rows;
    ``update_used`` says a later part needs the relationships this one
    binds; ``charge_examined`` is for sub-chains (see
    :class:`~repro.cypher.operators.AnchorScan`).
    """
    if part.shortest is not None:
        kind = "shortestPath" if part.shortest == "single" else "allShortestPaths"
        return ops.ShortestPath(
            state, child, context, part, filters,
            from_rows=from_rows, emit_row=emit_row, detail=kind,
        )
    elements = list(part.elements)
    if part_plan.reverse:
        elements = _reverse_elements(elements)
    first = elements[0]
    assert isinstance(first, ast.NodePattern)
    anchor = part_plan.anchor
    track_path = part.path_variable is not None
    maintain_used = update_used or needs_used_tracking(part)
    name, detail = anchor.physical_operator()
    op: ops.PhysicalOperator = ops.AnchorScan(
        state, child, context, first, anchor, filters,
        track_path, from_rows, name, detail, charge_examined,
    )
    for index in range(1, len(elements), 2):
        rel_pattern = elements[index]
        node_pattern = elements[index + 1]
        assert isinstance(rel_pattern, ast.RelPattern)
        assert isinstance(node_pattern, ast.NodePattern)
        expand_cls = ops.VarLengthExpand if rel_pattern.var_length else ops.Expand
        types = "|".join(rel_pattern.types) if rel_pattern.types else ""
        arrow = {"out": "->", "in": "<-", "both": "--"}[rel_pattern.direction]
        op = expand_cls(
            state, op, context, rel_pattern, node_pattern, filters,
            maintain_used, detail=f"[:{types}]{arrow}" if types else arrow,
            charge_examined=charge_examined,
        )
    return ops.PartEmit(
        state, op, part, part_plan.reverse, emit_row,
        detail=f"{len(part.nodes)} nodes, {part.hop_count} hops",
    )


def _lower_projection(
    child: ops.PhysicalOperator,
    clause: ast.ProjectionClause,
    context: Any,
    state: RuntimeState,
    scope: Iterable[str] = (),
    writes: bool = False,
) -> tuple[ops.PhysicalOperator, ops.PhysicalOperator]:
    """Lower WITH/RETURN into project → distinct → sort → skip → limit.

    ``scope`` is the set of variables bound before the clause, which
    ``*`` expands to; ``writes`` says an updating clause runs below it
    (its LIMIT is then exhaustive, see :class:`~.operators.Limit`).
    Returns the pipeline top plus the projection operator itself, whose
    items/keys Sort, AsRows and ProduceResults read.
    """
    items, keys, aggregated, grouping = ops.derive_projection(clause, sorted(scope))
    projection: ops.PhysicalOperator
    if aggregated:
        projection = ops.Aggregate(state, child, context, items, keys, grouping)
    else:
        projection = ops.Project(state, child, context, items, keys)
    _with_patterns(projection, context, clause.items)
    op: ops.PhysicalOperator = projection
    if clause.distinct:
        op = ops.Distinct(state, (op,))
    start = 0
    if clause.skip is not None:
        start = context._bounded_int(clause.skip, "SKIP")
    end: Optional[int] = None
    if clause.limit is not None:
        end = start + context._bounded_int(clause.limit, "LIMIT")
    if clause.order_by:
        op = ops.Sort(state, op, context, clause.order_by, projection, top=end)
        _with_patterns(op, context, clause.order_by)
    if start:
        op = ops.Skip(state, op, start)
    if end is not None:
        op = ops.Limit(state, op, end - start, writes)
    return op, projection


def _reverse_elements(
    elements: list[Union[ast.NodePattern, ast.RelPattern]],
) -> list[Union[ast.NodePattern, ast.RelPattern]]:
    """Reverse a pattern chain, flipping relationship directions."""
    flipped: list[Union[ast.NodePattern, ast.RelPattern]] = []
    for element in reversed(elements):
        if isinstance(element, ast.RelPattern):
            direction = {"out": "in", "in": "out", "both": "both"}[element.direction]
            flipped.append(
                ast.RelPattern(
                    variable=element.variable,
                    types=element.types,
                    direction=direction,
                    properties=element.properties,
                    min_hops=element.min_hops,
                    max_hops=element.max_hops,
                    var_length=element.var_length,
                )
            )
        else:
            flipped.append(element)
    return flipped
