"""Lowering: a parsed query plus its plans into a physical operator tree.

Each clause becomes one or more operators of :mod:`repro.cypher.operators`.
:func:`lower_part` builds every pattern part's chain, ``AnchorScan →
Expand* → Match`` (``ShortestPath`` for a shortest-path part): the parts
of MATCH and OPTIONAL MATCH, and, fed from an ``Argument`` leaf and re-run
per row, every pattern predicate, ``EXISTS`` pattern and pattern
comprehension.  Such a sub-chain hangs under the operator that evaluates
it, so PROFILE shows its operators and rows.  The engine
lowers a query shape once per set of plans (:func:`lower_query`); the tree
holds no run state, and what depends on a run's values (SKIP/LIMIT counts)
is resolved in the run; every projection's column names and ORDER BY plan
are fixed here.  EXPLAIN and PROFILE both
render this tree; each pattern operator's detail names its access path and
the pushed WHERE filters it applies.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from . import ast_nodes as ast
from . import operators as ops
from .errors import CypherError, CypherRuntimeError, CypherSyntaxError
from .planner import (
    AnchorPlan,
    Filters,
    MatchPlan,
    PartPlan,
    Site,
    needs_used_tracking,
    pattern_expressions,
    pattern_part,
)

__all__ = ["LoweredQuery", "lower_pattern", "lower_query"]

Plans = dict[int, Union[MatchPlan, PartPlan]]

class LoweredQuery:
    """A query's operator tree for one set of plans, shared by every run.

    ``chains`` maps ``id(expr)`` to the sub-chain of each pattern
    expression.  ``bounds`` lists the SKIP and LIMIT expressions as
    ``(expression, "SKIP" | "LIMIT")``, in lowering order: a run evaluates
    them before it starts, and Skip, Limit and TopK read the values by
    index.  ``size`` is the operator count; operator numbers index a run's
    counters.  When lowering fails, ``error`` is its error and ``root`` is
    None; a run evaluates the bounds lowered before the error, then raises it.
    """

    def __init__(self, plans: Plans, sites: list[Site]) -> None:
        self.plans = plans
        self.bounds: list[tuple[ast.Expr, str]] = []
        # Every pattern expression gets its chain up front,
        # wherever it sits (a SKIP, LIMIT or MATCH property may hold one).
        self.chains = {
            id(node): lower_pattern(pattern_part(node), plans[id(node)])
            for node, _ in sites if not isinstance(node, ast.MatchClause)
        }
        self.root: Optional[ops.PhysicalOperator] = None
        self.error: Optional[CypherError] = None
        self.size = 0

    def bound(self, expr: ast.Expr, what: str) -> int:
        """Index of ``expr``'s value among a run's SKIP/LIMIT counts."""
        self.bounds.append((expr, what))
        return len(self.bounds) - 1


def lower_query(tree: ast.Query, plans: Plans, sites: list[Site]) -> LoweredQuery:
    """Lower a parsed query into its physical operator tree; ``sites`` is
    :func:`~.planner.pattern_sites` of ``tree``."""
    lowered = LoweredQuery(plans, sites)
    try:
        if isinstance(tree, ast.UnionQuery):
            branches = [_lower_single(query, lowered) for query in tree.queries]
            lowered.root = ops.UnionAppend(branches, tree.union_all)
        else:
            lowered.root = _lower_single(tree, lowered)
    except CypherError as error:
        lowered.error = error
    roots = [chain.root for chain in lowered.chains.values()]
    lowered.size = _number(roots if lowered.root is None else [lowered.root, *roots])
    return lowered


def _number(roots: list[ops.PhysicalOperator]) -> int:
    """Number every operator under ``roots`` once; returns how many there are."""
    size = 0
    stack = list(roots)
    while stack:
        op = stack.pop()
        if op.number < 0:
            op.number = size
            size += 1
            stack.extend(op.children)
    return size


def _lower_single(tree: ast.SingleQuery, lowered: LoweredQuery) -> ops.ProduceResults:
    op: ops.PhysicalOperator = ops.Init()
    # Variables the clauses so far bind: what ``WITH *``/``RETURN *``
    # expand to, known before any row exists.
    scope: set[str] = set()
    # whether an updating clause runs below the current clause
    writes = False
    clauses = tree.clauses
    for index, clause in enumerate(clauses):
        if isinstance(clause, ast.MatchClause):
            op = _lower_match(op, clause, lowered)
            scope.update(clause.pattern.variables)
        elif isinstance(clause, ast.UnwindClause):
            op = _with_patterns(ops.Unwind(op, clause), lowered, clause)
            scope.add(clause.variable)
        elif isinstance(clause, ast.WithClause):
            op, projection = _lower_projection(op, clause, lowered, scope, writes)
            op = ops.AsRows(op, projection)
            if clause.where is not None:
                op = _filter(op, clause.where, lowered)
            scope = set(projection.keys)
        elif isinstance(clause, ast.ReturnClause):
            if index != len(clauses) - 1:
                raise CypherSyntaxError("RETURN must be the final clause")
            op, projection = _lower_projection(op, clause, lowered, scope, writes)
            return ops.ProduceResults(op, projection)
        elif type(clause) in _WRITE_OPERATORS:
            op = _WRITE_OPERATORS[type(clause)](op, clause)
            if isinstance(clause, ast.CreateClause):
                scope.update(clause.pattern.variables)
            _with_patterns(op, lowered, clause)
            writes = True
        else:  # pragma: no cover - parser cannot produce others
            raise CypherRuntimeError(f"unsupported clause {clause!r}")
    return ops.ProduceResults(op, None)


_WRITE_OPERATORS = {ast.CreateClause: ops.Create, ast.SetClause: ops.SetProperties}


def _with_patterns(
    op: ops.PhysicalOperator, lowered: LoweredQuery, *exprs: Any
) -> ops.PhysicalOperator:
    """``op`` with the sub-chain of each pattern expression it evaluates
    as an extra child (its first child stays its input)."""
    if lowered.chains:
        for expr, _ in pattern_expressions(exprs):
            op.children.append(lowered.chains[id(expr)].root)
    return op


def _filter(
    child: ops.PhysicalOperator, where: ast.Expr, lowered: LoweredQuery
) -> ops.PhysicalOperator:
    return _with_patterns(ops.Filter(child, where, pairs_in=False), lowered, where)


def _lower_match(
    child: ops.PhysicalOperator, clause: ast.MatchClause, lowered: LoweredQuery
) -> ops.PhysicalOperator:
    """The clause's parts chained (each consumes the previous part's ``(row,
    used)`` pairs, threading relationship uniqueness through), then its
    WHERE.  OPTIONAL MATCH runs them as a sub-pipeline re-run once per
    upstream row, padding with nulls on no match."""
    plan = lowered.plans[id(clause)]
    source = ops.RowSource() if clause.optional else child
    parts = clause.pattern.parts
    op = source
    for index, (part, part_plan) in enumerate(zip(parts, plan.parts)):
        op = lower_part(
            op, part, part_plan, plan.filters,
            from_rows=index == 0, emit_row=index == len(parts) - 1,
            update_used=len(parts) > 1,
        )
    if clause.where is not None:
        op = _filter(op, clause.where, lowered)
    if not clause.optional:
        return op
    return ops.OptionalMatch(child, op, source, clause.pattern.variables)


def lower_pattern(part: ast.PatternPart, part_plan: PartPlan) -> ops.PatternChain:
    """The chain of a pattern expression, fed one row at a time."""
    source = ops.RowSource()
    root = lower_part(
        source, part, part_plan, None, from_rows=True, emit_row=True, update_used=False,
    )
    return ops.PatternChain(source, root)


def lower_part(
    child: ops.PhysicalOperator,
    part: ast.PatternPart,
    part_plan: PartPlan,
    filters: Optional[Filters],
    *,
    from_rows: bool,
    emit_row: bool,
    update_used: bool,
) -> ops.PhysicalOperator:
    """One pattern part as an ``AnchorScan → Expand* → Match`` chain.

    ``from_rows`` says ``child`` emits plain rows rather than ``(row,
    used)`` pairs; ``emit_row`` says the chain emits plain rows;
    ``update_used`` says a later part needs the relationships this one
    binds.
    """
    if part.shortest is not None:
        kind = "shortestPath" if part.shortest == "single" else "allShortestPaths"
        start, end = part_plan.anchor, part_plan.end_anchor
        paths = f"{kind}, {_access_path(start)} to {_access_path(end)}"
        ends = (part.nodes[0].variable, part.nodes[-1].variable)
        return ops.ShortestPath(
            child, part, start, end, filters, from_rows=from_rows, emit_row=emit_row,
            detail=_with_pushed(paths, filters, *ends),
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
        child, first, anchor, filters, track_path, from_rows, name,
        _with_pushed(detail, filters, first.variable),
    )
    for index in range(1, len(elements), 2):
        rel_pattern = elements[index]
        node_pattern = elements[index + 1]
        assert isinstance(rel_pattern, ast.RelPattern)
        assert isinstance(node_pattern, ast.NodePattern)
        types = "|".join(rel_pattern.types) if rel_pattern.types else ""
        arrow = {"out": "->", "in": "<-", "both": "--"}[rel_pattern.direction]
        # A variable-length hop binds a relationship list: only the end
        # node's pushed filters apply.
        if rel_pattern.var_length:
            expand_cls, bound = ops.VarLengthExpand, (node_pattern.variable,)
        else:
            expand_cls, bound = ops.Expand, (rel_pattern.variable, node_pattern.variable)
        op = expand_cls(
            op, rel_pattern, node_pattern, filters, maintain_used,
            detail=_with_pushed(f"[:{types}]{arrow}" if types else arrow, filters, *bound),
        )
    return ops.PartEmit(
        op, part, part_plan.reverse, emit_row,
        detail=f"{len(part.nodes)} nodes, {part.hop_count} hops",
    )


def _access_path(anchor: AnchorPlan) -> str:
    name, detail = anchor.physical_operator()
    return f"{name}({detail})" if detail else name


#: how a pushed filter's comparison reads (a range filter names its own)
_PUSHED_OP = {"eq": "=", "in": "IN"}


def _with_pushed(detail: str, filters: Optional[Filters], *variables: Optional[str]) -> str:
    """``detail`` followed by the pushed WHERE filters on ``variables``, each
    as ``var.key OP``: the operator applies them as it binds the variable."""
    pushed = ", ".join(
        f"{variable}.{filt.key} {_PUSHED_OP.get(filt.kind) or filt.ops[0]}"
        for variable in variables if filters and variable in filters
        for filt in filters[variable]
    )
    if not pushed:
        return detail
    return f"{detail}, pushed {pushed}" if detail else f"pushed {pushed}"


def _lower_projection(
    child: ops.PhysicalOperator,
    clause: ast.ProjectionClause,
    lowered: LoweredQuery,
    scope: set[str],
    writes: bool,
) -> tuple[ops.PhysicalOperator, ops._Projection]:
    """Lower WITH/RETURN into project → distinct → sort → skip → limit.

    ``scope`` is what ``*`` expands to (see :func:`_lower_single`);
    ``writes`` says an updating clause runs below the clause (its LIMIT is
    then exhaustive, see :class:`~.operators.Limit`).  Returns the pipeline
    top plus the projection operator itself, whose layout Sort, AsRows and
    ProduceResults read.
    """
    layout = ops.derive_projection(clause, sorted(scope))
    projection_cls = ops.Aggregate if layout[2] else ops.Project
    projection = projection_cls(child, layout)
    _with_patterns(projection, lowered, clause.items)
    op: ops.PhysicalOperator = projection
    if clause.distinct:
        op = ops.Distinct((op,))
    skip = None if clause.skip is None else lowered.bound(clause.skip, "SKIP")
    limit = None if clause.limit is None else lowered.bound(clause.limit, "LIMIT")
    if clause.order_by:
        top = None if limit is None else tuple(i for i in (skip, limit) if i is not None)
        op = ops.Sort(op, clause.order_by, projection, top)
        _with_patterns(op, lowered, clause.order_by)
    if skip is not None:
        op = ops.Skip(op, skip)
    if limit is not None:
        op = ops.Limit(op, limit, writes)
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
