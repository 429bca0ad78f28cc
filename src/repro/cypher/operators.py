"""Physical operators: the pull-based (Volcano-style) execution layer.

The executor lowers each query into a tree of these operators.  Every
operator implements the iterator protocol —

    ``open()`` → repeated ``next()`` (``None`` = exhausted) → ``close()``

— and pulls its input lazily from its children, so a downstream
``Limit``/``TopK`` terminates the entire upstream pipeline early instead
of materialising every intermediate row at each clause boundary.  Only
the genuinely blocking operators (``Sort``, ``Aggregate`` and the write
barriers) buffer rows; everything else streams.

Cross-cutting runtime concerns live on the shared :class:`RuntimeState`
threaded through every operator:

* **row budget** — every row any operator emits is charged against an
  optional budget; exceeding it raises :class:`ResourceExhausted`, which
  the serving layer maps to graceful degradation instead of an OOM;
* **deadline** — the per-request serving deadline is checked
  cooperatively between ``next()`` calls (every 256 emitted rows), so a
  runaway scan aborts with :class:`CypherDeadlineExceeded` instead of
  blowing past its budget;
* **profiling** — when on, every ``next()``/``open()`` is wall-clock
  timed; rows-produced counters are always maintained.  The counters
  feed the ``PROFILE`` tree rendering (:func:`render_profile`), the
  ``diagnostics["cypher_profile"]`` payload (:func:`profile_tree`) and
  the metrics registry's operator histograms.

Operator rows come in three shapes, matched to the pipeline stage:

* plain binding dicts between clauses,
* ``(row, used)`` pairs between pattern parts of one MATCH clause
  (``used`` is the relationship-uniqueness set),
* ``(row, used, node, path_nodes, path_rels)`` match states inside a
  part's anchor/expand chain,
* ``(values, env_rows)`` projection entries inside a WITH/RETURN
  pipeline (``env_rows`` is what ORDER BY may still need to evaluate).
"""

from __future__ import annotations

import dataclasses
import heapq
from operator import itemgetter
from time import perf_counter
from typing import Any, Iterator, Optional

from ..graph.model import Node, Path, Relationship
from . import ast_nodes as ast
from .errors import (
    CypherDeadlineExceeded,
    CypherSyntaxError,
    CypherTypeError,
    ResourceExhausted,
)
from .functions import is_aggregate_function
from .values import is_truthy, sort_key

__all__ = [
    "RuntimeState",
    "PhysicalOperator",
    "Init",
    "RowSource",
    "AnchorScan",
    "IndexOrderedScan",
    "Expand",
    "VarLengthExpand",
    "ShortestPath",
    "PartEmit",
    "PartMatch",
    "OptionalMatch",
    "Filter",
    "Unwind",
    "Project",
    "Aggregate",
    "Distinct",
    "Sort",
    "Skip",
    "Limit",
    "AsRows",
    "Create",
    "Merge",
    "SetProperties",
    "Delete",
    "Remove",
    "ProduceResults",
    "UnionAppend",
    "render_profile",
    "profile_tree",
    "derive_projection",
    "expression_variables",
]

Row = dict[str, Any]

#: deadline checks happen every this many globally emitted rows
_DEADLINE_STRIDE_MASK = 0xFF


class RuntimeState:
    """Per-execution shared state: row budget, deadline, profiling flag."""

    __slots__ = ("deadline", "budget", "profiled", "rows")

    def __init__(self, deadline=None, budget: Optional[int] = None, profiled: bool = False):
        self.deadline = deadline
        self.budget = budget
        self.profiled = profiled
        #: total rows emitted across *all* operators (the budget currency)
        self.rows = 0

    def check_deadline(self) -> None:
        """Raise when the request deadline has already expired."""
        if self.deadline is not None and self.deadline.expired:
            raise CypherDeadlineExceeded(
                f"query exceeded its deadline after {self.rows} intermediate rows"
            )


class PhysicalOperator:
    """Base operator: children, row counter, wall-time, budget charging.

    Subclasses implement ``_open``/``_next``/``_close``; the public
    ``next()`` wrapper counts every emitted row, charges the shared row
    budget, checks the deadline cooperatively, and (in profile mode)
    accumulates inclusive wall-clock time.  ``open()`` must fully reset
    iteration state — :class:`OptionalMatch` re-opens its sub-pipeline
    once per upstream row.
    """

    name = "Operator"

    def __init__(self, state: RuntimeState, children: tuple = ()) -> None:
        self.state = state
        self.children = list(children)
        self.rows_out = 0
        self.elapsed_s = 0.0
        self.detail = ""
        #: planner cardinality estimate (None = unplanned)
        self.estimate: Optional[float] = None

    @property
    def label(self) -> str:
        return f"{self.name}({self.detail})" if self.detail else self.name

    def open(self) -> None:
        for child in self.children:
            child.open()
        if self.state.profiled:
            started = perf_counter()
            self._open()
            self.elapsed_s += perf_counter() - started
        else:
            self._open()

    def next(self) -> Any:
        state = self.state
        if state.profiled:
            started = perf_counter()
            row = self._next()
            self.elapsed_s += perf_counter() - started
        else:
            row = self._next()
        if row is not None:
            self.rows_out += 1
            rows = state.rows = state.rows + 1
            if state.budget is not None and rows > state.budget:
                raise ResourceExhausted(
                    f"query exceeded its intermediate row budget ({state.budget} rows)"
                )
            if state.deadline is not None and not (rows & _DEADLINE_STRIDE_MASK):
                state.check_deadline()
        return row

    def close(self) -> None:
        self._close()
        for child in self.children:
            child.close()

    def _open(self) -> None:  # pragma: no cover - trivial default
        pass

    def _next(self) -> Any:
        raise NotImplementedError

    def _close(self) -> None:  # pragma: no cover - trivial default
        pass


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------

class Init(PhysicalOperator):
    """Emits the single empty row every query pipeline starts from."""

    name = "Init"

    def _open(self) -> None:
        self._done = False

    def _next(self) -> Optional[Row]:
        if self._done:
            return None
        self._done = True
        return {}


class RowSource(PhysicalOperator):
    """Single-row leaf an :class:`OptionalMatch` feeds its sub-pipeline from.

    Neo4j calls this ``Argument``: the operator yields exactly the one row
    ``set()`` planted since the last ``open()``.
    """

    name = "Argument"

    def _open(self) -> None:
        self._item: Optional[Row] = None

    def set(self, row: Row) -> None:
        self._item = row

    def _next(self) -> Optional[Row]:
        item = self._item
        self._item = None
        return item


# ---------------------------------------------------------------------------
# MATCH: anchor scans, expansions, part assembly
# ---------------------------------------------------------------------------

class AnchorScan(PhysicalOperator):
    """Candidate scan for a pattern part's anchor node.

    The concrete access path (label scan, hash lookup, range/prefix probe,
    all-nodes scan, bound variable) comes from the planner's
    :class:`~repro.cypher.planner.AnchorPlan`; the operator's ``name``
    reflects it (``LabelScan``, ``HashLookup``, ``RangeLookup``,
    ``PrefixLookup``, ``AllNodesScan``, ``BoundAnchor``).  Emits match
    states; every candidate is still fully verified by the executor's
    ``_bind_node``, so a stale plan can never change results.
    """

    def __init__(
        self,
        state: RuntimeState,
        child: PhysicalOperator,
        ctx,
        node_pattern: ast.NodePattern,
        anchor,
        filters,
        track_path: bool,
        from_rows: bool,
        name: str,
        detail: str = "",
    ) -> None:
        super().__init__(state, (child,))
        self.ctx = ctx
        self.node_pattern = node_pattern
        self.anchor = anchor
        self.filters = filters
        self.track_path = track_path
        self.from_rows = from_rows
        self.name = name
        self.detail = detail

    def _open(self) -> None:
        self._src: Optional[Iterator[Node]] = None
        self._row: Optional[Row] = None
        self._used: frozenset = frozenset()

    def _next(self) -> Any:
        ctx = self.ctx
        pattern = self.node_pattern
        child = self.children[0]
        while True:
            src = self._src
            if src is not None:
                for node in src:
                    bound = ctx._bind_node(pattern, node, self._row, self.filters)
                    if bound is None:
                        continue
                    if self.track_path:
                        return (bound, self._used, node, [node], [])
                    return (bound, self._used, node, None, None)
                self._src = None
            item = child.next()
            if item is None:
                return None
            if self.from_rows:
                self._row, self._used = item, frozenset()
            else:
                self._row, self._used = item
            self._src = iter(ctx._node_candidates(pattern, self._row, self.anchor))


class IndexOrderedScan(PhysicalOperator):
    """Fused top-k scan streaming a sorted index in ORDER BY key order.

    Emits verified rows straight from the index stream and stops as soon
    as the top ``SKIP + LIMIT`` rows *plus their whole tie group* on the
    primary key are out (the canonical tie-break downstream may still
    reorder equal keys), so neither the full label scan nor the full sort
    ever run.  ``needed == 0`` short-circuits the scan entirely.
    """

    name = "IndexOrderedScan"

    def __init__(
        self,
        state: RuntimeState,
        ctx,
        stream: Iterator[Node],
        node_pattern: ast.NodePattern,
        filters,
        where: Optional[ast.Expr],
        order_expr: ast.Expr,
        descending: bool,
        needed: int,
        detail: str = "",
    ) -> None:
        super().__init__(state)
        self.ctx = ctx
        self._stream = stream
        self.node_pattern = node_pattern
        self.filters = filters
        self.where = where
        self.order_expr = order_expr
        self.descending = descending
        self.needed = needed
        self.detail = detail

    def _open(self) -> None:
        self._count = 0
        self._boundary: Any = None
        self._done = self.needed == 0

    def _next(self) -> Optional[Row]:
        if self._done:
            return None
        ctx = self.ctx
        evaluate = ctx.evaluator.evaluate
        for node in self._stream:
            row = ctx._bind_node(self.node_pattern, node, {}, self.filters)
            if row is None:
                continue
            if self.where is not None and is_truthy(evaluate(self.where, row)) is not True:
                continue
            key = sort_key(evaluate(self.order_expr, row))
            if self.descending:
                key = _Descending(key)
            if self._count >= self.needed and self._boundary < key:
                break
            self._count += 1
            if self._count == self.needed:
                self._boundary = key
            return row
        self._done = True
        return None


class Expand(PhysicalOperator):
    """One relationship hop: input match states fan out along adjacency.

    Carries the whole per-hop protocol of the recursive matcher it
    replaced: relationship-uniqueness bookkeeping, rel-variable binding
    and rebinding consistency, pushed single-rel filters, endpoint
    verification, and path extension when a path variable is tracked.
    """

    name = "Expand"

    def __init__(
        self,
        state: RuntimeState,
        child: PhysicalOperator,
        ctx,
        rel_pattern: ast.RelPattern,
        node_pattern: ast.NodePattern,
        filters,
        maintain_used: bool,
        detail: str = "",
    ) -> None:
        super().__init__(state, (child,))
        self.ctx = ctx
        self.rel_pattern = rel_pattern
        self.node_pattern = node_pattern
        self.filters = filters
        self.maintain_used = maintain_used
        self.detail = detail

    def _open(self) -> None:
        self._steps: Optional[Iterator] = None
        self._base: Any = None

    def _next(self) -> Any:
        ctx = self.ctx
        rel_pattern = self.rel_pattern
        node_pattern = self.node_pattern
        filters = self.filters
        child = self.children[0]
        while True:
            steps = self._steps
            if steps is not None:
                row, used, current, nodes, rels = self._base
                for step_rels, end_node in steps:
                    if self.maintain_used:
                        new_used = used | {rel.rel_id for rel in step_rels}
                    else:
                        new_used = used
                    if rel_pattern.variable is not None:
                        bound_value: Any = (
                            list(step_rels) if rel_pattern.var_length else step_rels[0]
                        )
                        if rel_pattern.variable in row:
                            if not _same_rel_binding(row[rel_pattern.variable], bound_value):
                                continue
                            rel_row = row
                        else:
                            if (
                                filters
                                and not rel_pattern.var_length
                                and not ctx._passes_filters(
                                    step_rels[0].properties,
                                    filters.get(rel_pattern.variable),
                                )
                            ):
                                continue
                            rel_row = dict(row)
                            rel_row[rel_pattern.variable] = bound_value
                    else:
                        rel_row = row
                    end_row = ctx._bind_node(node_pattern, end_node, rel_row, filters)
                    if end_row is None:
                        continue
                    if nodes is None:
                        next_nodes = None
                        next_rels = None
                    elif rel_pattern.var_length:
                        # Include intermediate nodes so bound paths are complete.
                        step_nodes = []
                        cursor = current
                        for rel in step_rels:
                            cursor = ctx.store.node(rel.other_end(cursor.node_id))
                            step_nodes.append(cursor)
                        if not step_rels:
                            step_nodes = []
                        next_nodes = nodes + step_nodes
                        if not step_rels and end_node.node_id != current.node_id:
                            next_nodes = nodes + [end_node]
                        next_rels = rels + list(step_rels)
                    else:
                        next_nodes = nodes + [end_node]
                        next_rels = rels + list(step_rels)
                    return (end_row, new_used, end_node, next_nodes, next_rels)
                self._steps = None
                continue
            item = child.next()
            if item is None:
                return None
            self._base = item
            row, used, current, _nodes, _rels = item
            if rel_pattern.var_length:
                self._steps = ctx._expand_var_length(rel_pattern, current, row, used)
            else:
                self._steps = iter(ctx._expand_single(rel_pattern, current, row, used))


class VarLengthExpand(Expand):
    """Variable-length hop (``-[*m..n]->``); shares :class:`Expand`'s body."""

    name = "VarLengthExpand"


class ShortestPath(PhysicalOperator):
    """``shortestPath()`` / ``allShortestPaths()`` BFS for one pattern part."""

    name = "ShortestPath"

    def __init__(
        self,
        state: RuntimeState,
        child: PhysicalOperator,
        ctx,
        part: ast.PatternPart,
        filters,
        from_rows: bool,
        emit_row: bool,
        detail: str = "",
    ) -> None:
        super().__init__(state, (child,))
        self.ctx = ctx
        self.part = part
        self.filters = filters
        self.from_rows = from_rows
        self.emit_row = emit_row
        self.detail = detail

    def _open(self) -> None:
        self._gen: Optional[Iterator] = None

    def _next(self) -> Any:
        child = self.children[0]
        while True:
            gen = self._gen
            if gen is not None:
                for matched, used_after in gen:
                    if self.emit_row:
                        return matched
                    return (matched, used_after)
                self._gen = None
            item = child.next()
            if item is None:
                return None
            row, used = (item, frozenset()) if self.from_rows else item
            self._gen = iter(self.ctx._match_shortest(self.part, row, used, self.filters))


class PartEmit(PhysicalOperator):
    """Completes one pattern part: binds the path variable, emits the row.

    Its row counter is the "rows matched by this pattern part" figure the
    old per-clause profile reported, hence the ``Match`` display name.
    Emits ``(row, used)`` pairs for the next part, or plain rows when the
    part is the clause's last and no residual WHERE follows.
    """

    name = "Match"

    def __init__(
        self,
        state: RuntimeState,
        child: PhysicalOperator,
        part: ast.PatternPart,
        reversed_part: bool,
        emit_row: bool,
        detail: str = "",
    ) -> None:
        super().__init__(state, (child,))
        self.part = part
        self.reversed_part = reversed_part
        self.emit_row = emit_row
        self.detail = detail

    def _next(self) -> Any:
        item = self.children[0].next()
        if item is None:
            return None
        row, used, _node, nodes, rels = item
        path_variable = self.part.path_variable
        if path_variable is not None:
            path_nodes = list(reversed(nodes)) if self.reversed_part else nodes
            path_rels = list(reversed(rels)) if self.reversed_part else rels
            row = dict(row)
            row[path_variable] = Path(path_nodes, path_rels)
        if self.emit_row:
            return row
        return (row, used)


class PartMatch(PhysicalOperator):
    """Unplanned part matcher: defers to the executor's heuristic matcher.

    Without a plan, traversal direction depends on which variables the
    incoming row happens to bind — a per-row decision a static operator
    chain cannot replicate — so the planner-off escape hatch streams the
    row-at-a-time output of the original ``_match_part`` verbatim.  Its
    memory high-water mark is one input row's fan-out, not the whole
    clause output.
    """

    name = "Match"

    def __init__(
        self,
        state: RuntimeState,
        child: PhysicalOperator,
        ctx,
        part: ast.PatternPart,
        from_rows: bool,
        update_used: bool,
        emit_row: bool,
        detail: str = "",
    ) -> None:
        super().__init__(state, (child,))
        self.ctx = ctx
        self.part = part
        self.from_rows = from_rows
        self.update_used = update_used
        self.emit_row = emit_row
        self.detail = detail

    def _open(self) -> None:
        self._pending: Optional[list] = None
        self._index = 0

    def _next(self) -> Any:
        child = self.children[0]
        while True:
            pending = self._pending
            if pending is not None:
                i = self._index
                if i < len(pending):
                    self._index = i + 1
                    row, used = pending[i]
                    if self.emit_row:
                        return row
                    return (row, used)
                self._pending = None
            item = child.next()
            if item is None:
                return None
            row, used = (item, frozenset()) if self.from_rows else item
            self._pending = list(
                self.ctx._match_part(
                    self.part, row, used, None, None, update_used=self.update_used
                )
            )
            self._index = 0


class OptionalMatch(PhysicalOperator):
    """OPTIONAL MATCH: per upstream row, run the pattern sub-pipeline.

    The sub-pipeline (parts + residual WHERE) hangs off a
    :class:`RowSource` leaf; for each upstream row the operator plants the
    row, re-opens the sub-tree and streams its matches.  When a row
    produces none, it is emitted once padded with nulls for every
    variable the pattern could have bound.
    """

    name = "OptionalMatch"

    def __init__(
        self,
        state: RuntimeState,
        child: PhysicalOperator,
        subroot: PhysicalOperator,
        source: RowSource,
        new_variables: list[str],
        detail: str = "",
    ) -> None:
        super().__init__(state, (child, subroot))
        self.subroot = subroot
        self.source = source
        self.new_variables = new_variables
        self.detail = detail

    def _open(self) -> None:
        self._current: Optional[Row] = None
        self._matched = False
        self._active = False

    def _next(self) -> Optional[Row]:
        child = self.children[0]
        while True:
            if self._active:
                out = self.subroot.next()
                if out is not None:
                    self._matched = True
                    return out
                self._active = False
                if not self._matched:
                    padded = dict(self._current)
                    for name in self.new_variables:
                        padded.setdefault(name, None)
                    return padded
                continue
            row = child.next()
            if row is None:
                return None
            self._current = row
            self._matched = False
            self._active = True
            self.subroot.open()
            self.source.set(row)


class Filter(PhysicalOperator):
    """Residual WHERE: keeps rows whose predicate is ternary-true.

    ``pairs_in`` consumes the ``(row, used)`` pairs a MATCH part chain
    emits (the clause boundary drops the uniqueness set); otherwise plain
    rows, as after a WITH projection.  Always emits plain rows.
    """

    name = "Filter"

    def __init__(
        self,
        state: RuntimeState,
        child: PhysicalOperator,
        ctx,
        predicate: ast.Expr,
        pairs_in: bool,
        detail: str = "WHERE",
    ) -> None:
        super().__init__(state, (child,))
        self.ctx = ctx
        self.predicate = predicate
        self.pairs_in = pairs_in
        self.detail = detail

    def _next(self) -> Optional[Row]:
        child = self.children[0]
        pairs = self.pairs_in
        evaluate = self.ctx.evaluator.evaluate
        predicate = self.predicate
        while True:
            item = child.next()
            if item is None:
                return None
            row = item[0] if pairs else item
            if is_truthy(evaluate(predicate, row)) is True:
                return row


class Unwind(PhysicalOperator):
    """UNWIND: one output row per list element (null unwinds to nothing)."""

    name = "Unwind"

    def __init__(self, state: RuntimeState, child: PhysicalOperator, ctx, clause) -> None:
        super().__init__(state, (child,))
        self.ctx = ctx
        self.clause = clause
        self.detail = clause.variable

    def _open(self) -> None:
        self._items: Optional[list] = None
        self._row: Optional[Row] = None
        self._index = 0

    def _next(self) -> Optional[Row]:
        child = self.children[0]
        clause = self.clause
        while True:
            items = self._items
            if items is not None:
                i = self._index
                if i < len(items):
                    self._index = i + 1
                    new_row = dict(self._row)
                    new_row[clause.variable] = items[i]
                    return new_row
                self._items = None
            row = child.next()
            if row is None:
                return None
            value = self.ctx.evaluator.evaluate(clause.expression, row)
            if value is None:
                continue
            if not isinstance(value, list):
                value = [value]
            self._row = row
            self._items = value
            self._index = 0


# ---------------------------------------------------------------------------
# Projection pipeline (WITH / RETURN)
# ---------------------------------------------------------------------------

def derive_projection(
    clause: ast.ProjectionClause, in_scope: list[str]
) -> tuple[list, list[str], bool, list[int]]:
    """Resolve a projection clause's items/keys/aggregation/grouping.

    ``in_scope`` is the sorted variable scope a ``RETURN *`` expands to
    (ignored for non-star clauses).
    """
    items = list(clause.items)
    if clause.star:
        star_items = [
            ast.ReturnItem(expression=ast.Variable(name), alias=name)
            for name in in_scope
        ]
        items = star_items + items
    if not items:
        raise CypherSyntaxError("projection requires at least one item")
    keys = [item.output_name() for item in items]
    aggregated = any(_contains_aggregate(item.expression) for item in items)
    grouping_indices = [
        i for i, item in enumerate(items) if not _contains_aggregate(item.expression)
    ]
    return items, keys, aggregated, grouping_indices


class Project(PhysicalOperator):
    """Streaming projection: one ``(values, [row])`` entry per input row."""

    name = "Project"

    def __init__(
        self,
        state: RuntimeState,
        child: PhysicalOperator,
        ctx,
        items: list,
        keys: list[str],
    ) -> None:
        super().__init__(state, (child,))
        self.ctx = ctx
        self.items = items
        self.keys = keys
        self.aggregated = False
        self.detail = ", ".join(keys)

    def _next(self) -> Any:
        row = self.children[0].next()
        if row is None:
            return None
        evaluate = self.ctx.evaluator.evaluate
        return ([evaluate(item.expression, row) for item in self.items], [row])


class Aggregate(PhysicalOperator):
    """Grouped aggregation: blocking by nature (groups need every row).

    Produces one ``(values, group_rows)`` entry per group, in first-seen
    group order; a global aggregate over zero rows still produces its one
    row (``count(*) = 0``).
    """

    name = "Aggregate"

    def __init__(
        self,
        state: RuntimeState,
        child: PhysicalOperator,
        ctx,
        items: list,
        keys: list[str],
        grouping_indices: list[int],
    ) -> None:
        super().__init__(state, (child,))
        self.ctx = ctx
        self.items = items
        self.keys = keys
        self.grouping_indices = grouping_indices
        self.aggregated = True
        self.detail = ", ".join(keys)

    def _open(self) -> None:
        child = self.children[0]
        rows: list[Row] = []
        while (row := child.next()) is not None:
            rows.append(row)
        self._produced = _project_grouped(
            self.ctx, rows, self.items, self.grouping_indices
        )
        self._index = 0

    def _next(self) -> Any:
        i = self._index
        if i >= len(self._produced):
            return None
        self._index = i + 1
        return self._produced[i]


class Distinct(PhysicalOperator):
    """Streaming DISTINCT over projection entries (first occurrence wins)."""

    name = "Distinct"

    def _open(self) -> None:
        self._seen: set = set()

    def _next(self) -> Any:
        child = self.children[0]
        seen = self._seen
        while True:
            entry = child.next()
            if entry is None:
                return None
            frozen = _freeze(entry[0])
            if frozen in seen:
                continue
            seen.add(frozen)
            return entry


class Sort(PhysicalOperator):
    """ORDER BY: blocking sort of projection entries.

    With ``top`` set (SKIP + LIMIT known) the operator is a TopK:
    ``heapq.nsmallest`` bounded selection, never a full sort.  Every
    entry's composite key — ORDER BY values plus the canonical projected-
    value tie-break that keeps planner-on/off output identical — is
    evaluated exactly once.
    """

    def __init__(
        self,
        state: RuntimeState,
        child: PhysicalOperator,
        ctx,
        order_by,
        projection,
        top: Optional[int] = None,
    ) -> None:
        super().__init__(state, (child,))
        self.ctx = ctx
        self.order_by = order_by
        #: the Project/Aggregate feeding this sort (its items/keys/aggregated)
        self.projection = projection
        self.top = top
        self.name = "TopK" if top is not None else "Sort"
        self.detail = f"{len(order_by)} keys" + (f", top {top}" if top is not None else "")

    def _open(self) -> None:
        self._buffer: Optional[list] = None
        self._index = 0

    def _next(self) -> Any:
        if self._buffer is None:
            child = self.children[0]
            entries = []
            while (entry := child.next()) is not None:
                entries.append(entry)
            projection = self.projection
            self._buffer = _order(
                self.ctx,
                entries,
                self.order_by,
                projection.items,
                projection.keys,
                projection.aggregated,
                self.top,
            )
        i = self._index
        if i >= len(self._buffer):
            return None
        self._index = i + 1
        return self._buffer[i]


class Skip(PhysicalOperator):
    """SKIP: discards the first ``count`` entries, then streams."""

    name = "Skip"

    def __init__(self, state: RuntimeState, child: PhysicalOperator, count: int) -> None:
        super().__init__(state, (child,))
        self.count = count
        self.detail = str(count)

    def _open(self) -> None:
        self._remaining = self.count

    def _next(self) -> Any:
        child = self.children[0]
        while self._remaining > 0:
            self._remaining -= 1
            if child.next() is None:
                self._remaining = 0
                return None
        return child.next()


class Limit(PhysicalOperator):
    """LIMIT: stops pulling upstream after ``count`` entries — the early
    termination the whole streaming refactor exists for."""

    name = "Limit"

    def __init__(self, state: RuntimeState, child: PhysicalOperator, count: int) -> None:
        super().__init__(state, (child,))
        self.count = count
        self.detail = str(count)

    def _open(self) -> None:
        self._remaining = self.count

    def _next(self) -> Any:
        if self._remaining <= 0:
            return None
        entry = self.children[0].next()
        if entry is None:
            self._remaining = 0
            return None
        self._remaining -= 1
        return entry


class AsRows(PhysicalOperator):
    """WITH boundary: projection entries back to plain binding rows."""

    name = "Rows"

    def __init__(
        self, state: RuntimeState, child: PhysicalOperator, projection
    ) -> None:
        super().__init__(state, (child,))
        self.projection = projection

    def _next(self) -> Optional[Row]:
        entry = self.children[0].next()
        if entry is None:
            return None
        return dict(zip(self.projection.keys, entry[0]))


# ---------------------------------------------------------------------------
# Write barriers
# ---------------------------------------------------------------------------

class _WriteBarrier(PhysicalOperator):
    """Write clauses are full barriers: Cypher's clause-boundary semantics
    require every upstream row to exist before any write applies (and any
    later clause observes the mutated graph)."""

    def __init__(self, state: RuntimeState, child: PhysicalOperator, ctx, clause) -> None:
        super().__init__(state, (child,))
        self.ctx = ctx
        self.clause = clause

    def _open(self) -> None:
        self._out: Optional[list[Row]] = None
        self._index = 0

    def apply(self, rows: list[Row]) -> list[Row]:
        raise NotImplementedError

    def _next(self) -> Optional[Row]:
        if self._out is None:
            child = self.children[0]
            rows: list[Row] = []
            while (row := child.next()) is not None:
                rows.append(row)
            self._out = self.apply(rows)
        i = self._index
        if i >= len(self._out):
            return None
        self._index = i + 1
        return self._out[i]


class Create(_WriteBarrier):
    name = "Create"

    def apply(self, rows: list[Row]) -> list[Row]:
        return self.ctx.apply_create(rows, self.clause)


class Merge(_WriteBarrier):
    name = "Merge"

    def apply(self, rows: list[Row]) -> list[Row]:
        return self.ctx.apply_merge(rows, self.clause)


class SetProperties(_WriteBarrier):
    name = "Set"

    def apply(self, rows: list[Row]) -> list[Row]:
        return self.ctx.apply_set(rows, self.clause)


class Delete(_WriteBarrier):
    name = "Delete"

    def apply(self, rows: list[Row]) -> list[Row]:
        return self.ctx.apply_delete(rows, self.clause)


class Remove(_WriteBarrier):
    name = "Remove"

    def apply(self, rows: list[Row]) -> list[Row]:
        return self.ctx.apply_remove(rows, self.clause)


# ---------------------------------------------------------------------------
# Result production
# ---------------------------------------------------------------------------

class ProduceResults(PhysicalOperator):
    """Pipeline root: projection entries → result value lists.

    Without a RETURN clause (pure write queries) the operator drains its
    child so every write barrier fires, and yields nothing.
    """

    name = "ProduceResults"

    def __init__(
        self,
        state: RuntimeState,
        child: PhysicalOperator,
        projection=None,
    ) -> None:
        super().__init__(state, (child,))
        self.projection = projection
        if projection is not None and projection.keys:
            self.detail = ", ".join(projection.keys)

    @property
    def keys(self) -> list[str]:
        return list(self.projection.keys) if self.projection is not None else []

    def _next(self) -> Optional[list[Any]]:
        child = self.children[0]
        if self.projection is None:
            while child.next() is not None:
                pass
            return None
        entry = child.next()
        if entry is None:
            return None
        return entry[0]


class UnionAppend(PhysicalOperator):
    """UNION / UNION ALL: streams branch after branch, no per-branch copy.

    Branches open lazily in textual order (so branch side effects keep
    their sequencing) and their column names are validated as each branch
    opens.  Plain UNION dedups across branches with the same value-
    freezing the projection DISTINCT uses; first occurrence wins, exactly
    as concatenating full branch results and deduping did.
    """

    name = "Union"

    def __init__(
        self,
        state: RuntimeState,
        branches: list[ProduceResults],
        union_all: bool,
    ) -> None:
        super().__init__(state, tuple(branches))
        self.union_all = union_all
        self.keys: Optional[list[str]] = None
        self.detail = "ALL" if union_all else ""

    def open(self) -> None:
        # Branches must not open eagerly: a later branch's blocking
        # operators would otherwise run before an earlier branch streamed.
        self._current = 0
        self._opened = [False] * len(self.children)
        self._seen: set = set()
        self.keys = None

    def _next(self) -> Optional[list[Any]]:
        while True:
            i = self._current
            if i >= len(self.children):
                return None
            branch = self.children[i]
            if not self._opened[i]:
                branch.open()
                self._opened[i] = True
                branch_keys = branch.keys
                if self.keys is None:
                    self.keys = branch_keys
                elif branch_keys != self.keys:
                    raise CypherSyntaxError(
                        "all UNION sub-queries must return the same column names"
                    )
            values = branch.next()
            if values is None:
                self._current = i + 1
                continue
            if self.union_all:
                return values
            frozen = _freeze(values)
            if frozen in self._seen:
                continue
            self._seen.add(frozen)
            return values

    def close(self) -> None:
        for opened, branch in zip(self._opened, self.children):
            if opened:
                branch.close()


# ---------------------------------------------------------------------------
# PROFILE rendering
# ---------------------------------------------------------------------------

def render_profile(root: PhysicalOperator) -> str:
    """Render the executed operator tree as an indented text profile.

    One line per operator: label, planner estimate (when planned), rows
    produced, and inclusive wall-clock time.  UNION branches are labelled
    so per-branch sub-trees read separately.
    """
    lines: list[str] = []

    def walk(op: PhysicalOperator, depth: int) -> None:
        pad = "  " * depth
        estimate = f" est≈{op.estimate:.0f}" if op.estimate is not None else ""
        lines.append(
            f"{pad}+- {op.label}{estimate} -> {op.rows_out} rows"
            f" ({op.elapsed_s * 1000.0:.3f} ms)"
        )
        if isinstance(op, UnionAppend):
            for index, child in enumerate(op.children):
                lines.append(f"{pad}   UNION branch {index + 1}:")
                walk(child, depth + 2)
        else:
            for child in op.children:
                walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def profile_tree(op: PhysicalOperator) -> dict:
    """The operator tree as a JSON-safe dict (``diagnostics["cypher_profile"]``).

    ``time_ms`` is inclusive of children; ``self_time_ms`` subtracts the
    direct children's inclusive time (clamped at zero — timer granularity
    can make the difference marginally negative).
    """
    children = [profile_tree(child) for child in op.children]
    time_ms = op.elapsed_s * 1000.0
    self_ms = max(0.0, time_ms - sum(child.elapsed_s for child in op.children) * 1000.0)
    payload: dict[str, Any] = {
        "operator": op.name,
        "detail": op.detail,
        "rows": op.rows_out,
        "time_ms": round(time_ms, 4),
        "self_time_ms": round(self_ms, 4),
    }
    if op.estimate is not None:
        payload["estimate"] = round(op.estimate, 1)
    if children:
        payload["children"] = children
    return payload


def max_operator_rows(profile: dict) -> int:
    """Largest per-operator row count in a :func:`profile_tree` payload.

    The memory benchmark's "peak intermediate rows" figure: with streaming
    execution it is bounded by LIMIT (plus tie groups), where the seed
    executor's clause-boundary lists held the full scan cardinality.
    """
    peak = profile.get("rows", 0)
    for child in profile.get("children", ()):  # type: ignore[union-attr]
        peak = max(peak, max_operator_rows(child))
    return peak


# ---------------------------------------------------------------------------
# Shared projection / ordering machinery
# ---------------------------------------------------------------------------

class _Descending:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and other.key == self.key


def _project_grouped(
    ctx,
    rows: list[Row],
    items: list,
    grouping_indices: list[int],
) -> list[tuple[list[Any], list[Row]]]:
    """Group ``rows`` by the non-aggregate items and evaluate aggregates."""
    groups: dict[Any, tuple[list[Any], list[Row]]] = {}
    order: list[Any] = []
    evaluate = ctx.evaluator.evaluate
    for row in rows:
        group_values = [evaluate(items[i].expression, row) for i in grouping_indices]
        group_key = _freeze(group_values)
        if group_key not in groups:
            groups[group_key] = (group_values, [])
            order.append(group_key)
        groups[group_key][1].append(row)

    if not rows and not grouping_indices:
        # Aggregates over zero rows still produce one row (count(*) = 0).
        groups[()] = ([], [])
        order.append(())

    produced: list[tuple[list[Any], list[Row]]] = []
    for group_key in order:
        group_values, group_rows = groups[group_key]
        values: list[Any] = []
        group_iter = iter(group_values)
        for i, item in enumerate(items):
            if i in grouping_indices:
                values.append(next(group_iter))
            else:
                values.append(ctx.evaluator.evaluate_aggregate(item.expression, group_rows))
        produced.append((values, group_rows))
    return produced


def _order(
    ctx,
    produced: list[tuple[list[Any], list[Row]]],
    order_by,
    items: list,
    keys: list[str],
    aggregated: bool,
    top: Optional[int] = None,
) -> list[tuple[list[Any], list[Row]]]:
    """Sort ``produced``; with ``top`` set, only the first ``top`` rows.

    Every row's full ORDER BY key (including the canonical tie-break) is
    evaluated exactly once up front and reused by whichever selection
    runs: ``heapq.nsmallest`` bounded selection when ``top`` covers less
    than the input (O(n log k), never materialises a full sort), else a
    plain stable sort.  Both are stable on equal keys, so the heap path
    is row-for-row identical to sorting and slicing.
    """
    evaluate = ctx.evaluator.evaluate
    evaluate_aggregate = ctx.evaluator.evaluate_aggregate

    # Decide once per ORDER BY item how its value is obtained, instead of
    # re-walking the expression for every entry:
    #   ("reuse", j)     — the projection already evaluated this exact
    #                      expression (or the item is a plain output
    #                      alias); read values[j], no re-evaluation
    #   ("agg", expr)    — aggregate over the group's env rows
    #   ("eval", expr)   — evaluate against the alias-extended row
    key_set = set(keys)
    plans: list[tuple] = []
    needs_env = False
    for order_item in order_by:
        expr = order_item.expression
        if aggregated and _contains_aggregate(expr):
            reused = None
            for j, item in enumerate(items):
                if item.expression == expr:
                    reused = j
                    break
            if reused is not None:
                plans.append(("reuse", reused))
            else:
                plans.append(("agg", expr))
            continue
        if isinstance(expr, ast.Variable) and expr.name in key_set:
            # Aliases shadow pattern variables in ORDER BY scope; the
            # dict(zip(...)) env made the *last* duplicate key win.
            for j in range(len(keys) - 1, -1, -1):
                if keys[j] == expr.name:
                    plans.append(("reuse", j))
                    break
            continue
        reused = None
        if expression_variables(expr).isdisjoint(key_set):
            # Safe only when no alias shadows a variable the expression
            # reads (`RETURN a.x AS a ORDER BY a.x` must re-evaluate).
            for j, item in enumerate(items):
                if item.expression == expr:
                    reused = j
                    break
        if reused is not None:
            plans.append(("reuse", reused))
            continue
        plans.append(("eval", expr))
        needs_env = True

    def order_values(entry: tuple[list[Any], list[Row]]) -> tuple:
        values, env_rows = entry
        if needs_env:
            base = dict(env_rows[0]) if env_rows else {}
            base.update(zip(keys, values))
        else:
            base = None
        sort_parts = []
        for (kind, payload), order_item in zip(plans, order_by):
            if kind == "reuse":
                value = values[payload]
            elif kind == "agg":
                value = evaluate_aggregate(payload, env_rows)
            else:
                value = evaluate(payload, base)
            key = sort_key(value)
            if order_item.descending:
                sort_parts.append(_Descending(key))
            else:
                sort_parts.append(key)
        # Canonical tie-break over the projected values: rows that compare
        # equal on every ORDER BY key would otherwise keep match-order,
        # which depends on the chosen plan.  This keeps ordered output
        # identical whether the planner is on or off.
        try:
            sort_parts.append(tuple(sort_key(value) for value in values))
        except CypherTypeError:
            sort_parts.append(())
        return tuple(sort_parts)

    decorated = [(order_values(entry), entry) for entry in produced]
    if top is not None and 0 <= top < len(decorated):
        selected = heapq.nsmallest(top, decorated, key=itemgetter(0))
    else:
        decorated.sort(key=itemgetter(0))
        selected = decorated
    return [entry for _, entry in selected]


def _freeze(value: Any) -> Any:
    """Convert a value into a hashable group/dedup key."""
    cls = value.__class__
    if cls is str or cls is int or cls is bool or value is None:
        return value
    if isinstance(value, list):
        return ("list", tuple(_freeze(item) for item in value))
    if isinstance(value, dict):
        return ("map", tuple(sorted((k, _freeze(v)) for k, v in value.items())))
    if isinstance(value, Node):
        return ("node", value.node_id)
    if isinstance(value, Relationship):
        return ("rel", value.rel_id)
    if isinstance(value, Path):
        return (
            "path",
            tuple(n.node_id for n in value.nodes),
            tuple(r.rel_id for r in value.relationships),
        )
    if isinstance(value, float) and value.is_integer():
        return float(value)
    return value


#: dataclass string fields that name variables a pattern/comprehension binds
#: or references; collected conservatively (extra names only disable a reuse
#: optimisation, never change results).
_NAME_FIELDS = frozenset({"variable", "path_variable", "accumulator"})


def expression_variables(expr: Any) -> frozenset[str]:
    """Every variable name ``expr`` may read (conservative over-estimate)."""
    names: set[str] = set()
    _collect_variables(expr, names)
    return frozenset(names)


def _collect_variables(obj: Any, names: set[str]) -> None:
    if isinstance(obj, ast.Variable):
        names.add(obj.name)
        return
    if isinstance(obj, (tuple, list)):
        for item in obj:
            _collect_variables(item, names)
        return
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if isinstance(value, str):
                if field.name in _NAME_FIELDS:
                    names.add(value)
                continue
            _collect_variables(value, names)


def _contains_aggregate(expr: ast.Expr) -> bool:
    """Walk an expression tree looking for aggregate calls."""
    if isinstance(expr, ast.CountStar):
        return True
    if isinstance(expr, ast.FunctionCall):
        if is_aggregate_function(expr.name):
            return True
        return any(_contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, (ast.Literal, ast.Parameter, ast.Variable)):
        return False
    if isinstance(expr, ast.PropertyAccess):
        return _contains_aggregate(expr.subject)
    if isinstance(expr, ast.Subscript):
        return _contains_aggregate(expr.subject) or _contains_aggregate(expr.index)
    if isinstance(expr, ast.Slice):
        return any(
            _contains_aggregate(part)
            for part in (expr.subject, expr.start, expr.end)
            if part is not None
        )
    if isinstance(expr, ast.ListLiteral):
        return any(_contains_aggregate(item) for item in expr.items)
    if isinstance(expr, ast.MapLiteral):
        return any(_contains_aggregate(value) for _, value in expr.items)
    if isinstance(expr, ast.UnaryOp):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.BinaryOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.Comparison):
        return any(_contains_aggregate(operand) for operand in expr.operands)
    if isinstance(expr, ast.BooleanOp):
        return any(_contains_aggregate(operand) for operand in expr.operands)
    if isinstance(expr, ast.NotOp):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.IsNull):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.StringPredicate):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.InList):
        return _contains_aggregate(expr.value) or _contains_aggregate(expr.container)
    if isinstance(expr, ast.CaseExpr):
        parts: list[ast.Expr] = []
        if expr.subject is not None:
            parts.append(expr.subject)
        for condition, result in expr.whens:
            parts.extend((condition, result))
        if expr.default is not None:
            parts.append(expr.default)
        return any(_contains_aggregate(part) for part in parts)
    if isinstance(expr, ast.ListComprehension):
        parts = [expr.source]
        if expr.predicate is not None:
            parts.append(expr.predicate)
        if expr.projection is not None:
            parts.append(expr.projection)
        return any(_contains_aggregate(part) for part in parts)
    return False


def _same_rel_binding(existing: Any, candidate: Any) -> bool:
    """Is a rebound relationship variable consistent with its prior value?"""
    if isinstance(existing, Relationship) and isinstance(candidate, Relationship):
        return existing.rel_id == candidate.rel_id
    if isinstance(existing, list) and isinstance(candidate, list):
        return [r.rel_id for r in existing] == [r.rel_id for r in candidate]
    return False
