"""Physical operators: the pull-based (Volcano-style) execution layer.

The executor lowers each query into a tree of these operators.  Every
operator is a generator: ``iter(op)`` starts one run of it, which
iterates its children's generators and yields its own rows lazily, so a
downstream ``Limit``/``TopK`` stops pulling and the entire upstream
pipeline terminates early instead of materialising every intermediate row
at each clause boundary.  Only the genuinely blocking operators (``Sort``,
``Aggregate`` and the write barriers) buffer rows; everything else streams.
Each emitted row costs one generator resume per operator it crosses.

Cross-cutting runtime concerns live on the shared :class:`RuntimeState`
threaded through every operator:

* **row budget** — every operator counts (``rows_out``) and charges every
  row it emits, inline, just before yielding it; exceeding the budget
  raises :class:`ResourceExhausted`, which the serving layer maps to
  graceful degradation instead of an OOM;
* **deadline** — the per-request serving deadline is checked by the same
  charge, cooperatively (every 256 emitted rows), so a runaway scan aborts
  with :class:`CypherDeadlineExceeded` instead of blowing past its budget;
* **profiling** — when on, each operator's generator is wrapped by
  :func:`_timed`, which adds the wall-clock time of every resume
  (inclusive of the children it pulls from) to ``elapsed_s``.  The row
  counters are always maintained.  Both feed the ``PROFILE`` tree
  rendering (:func:`render_profile`), the ``diagnostics["cypher_profile"]``
  payload (:func:`profile_tree`) and the metrics registry's operator
  histograms.

Operator rows come in four shapes, matched to the pipeline stage:

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
from itertools import compress, count, islice
from operator import eq
from time import perf_counter
from typing import Any, Iterator, NamedTuple, Optional

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
    "Expand",
    "VarLengthExpand",
    "ShortestPath",
    "PartEmit",
    "PatternChain",
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

#: the relationship-uniqueness set a pattern part starts from
_NO_RELS: frozenset = frozenset()


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

    def charge(self) -> None:
        """Count one intermediate row against the budget and the deadline.

        Every operator charges every row it emits; the sub-chains of pattern
        expressions and MERGE also charge every candidate and step they
        examine.  The deadline is read once per ``_DEADLINE_STRIDE_MASK + 1``
        rows.
        """
        rows = self.rows = self.rows + 1
        if self.budget is not None and rows > self.budget:
            raise ResourceExhausted(
                f"query exceeded its intermediate row budget ({self.budget} rows)"
            )
        if self.deadline is not None and not (rows & _DEADLINE_STRIDE_MASK):
            self.check_deadline()


class PhysicalOperator:
    """Base operator: children, row counter, wall-time.

    Subclasses implement ``_rows()``, a generator that iterates its
    children (``for item in child``) and, for every row it emits, bumps
    ``rows_out`` and calls ``state.charge()`` before yielding it.  Every
    ``iter(op)`` is a fresh run: :class:`OptionalMatch` re-runs its
    sub-pipeline once per upstream row.
    """

    name = "Operator"

    def __init__(self, state: RuntimeState, children: tuple = ()) -> None:
        self.state = state
        self.children = list(children)
        self.rows_out = 0
        self.elapsed_s = 0.0
        self.detail = ""

    @property
    def label(self) -> str:
        return f"{self.name}({self.detail})" if self.detail else self.name

    def __iter__(self) -> Iterator[Any]:
        rows = self._rows()
        return _timed(self, rows) if self.state.profiled else rows

    def _rows(self) -> Iterator[Any]:
        raise NotImplementedError


def _timed(op: PhysicalOperator, rows: Iterator[Any]) -> Iterator[Any]:
    """PROFILE only: add the time of every resume of ``rows`` to ``op``."""
    started = perf_counter()
    for row in rows:
        op.elapsed_s += perf_counter() - started
        yield row
        started = perf_counter()
    op.elapsed_s += perf_counter() - started


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------

class Init(PhysicalOperator):
    """Emits the single empty row every query pipeline starts from."""

    name = "Init"

    def _rows(self) -> Iterator[Row]:
        self.rows_out += 1
        self.state.charge()
        yield {}


class RowSource(PhysicalOperator):
    """Single-row leaf of a sub-pipeline re-run per outer row.

    Neo4j calls this ``Argument``: each run yields exactly the one ``row``
    its :class:`OptionalMatch` or :class:`PatternChain` planted before
    starting it.
    """

    name = "Argument"
    row: Optional[Row] = None

    def _rows(self) -> Iterator[Row]:
        self.rows_out += 1
        self.state.charge()
        yield self.row


# ---------------------------------------------------------------------------
# MATCH: anchor scans, expansions, part assembly
# ---------------------------------------------------------------------------

class AnchorScan(PhysicalOperator):
    """Candidate scan for a pattern part's anchor node.

    The concrete access path (label scan, hash lookup, all-nodes scan,
    bound variable) comes from the planner's
    :class:`~repro.cypher.planner.AnchorPlan`; the operator's ``name``
    reflects it (``LabelScan``, ``HashLookup``, ``AllNodesScan``,
    ``BoundAnchor``).  Emits match
    states; every candidate is still fully verified by the executor's
    ``_bind_node``, so a stale plan can never change results.

    With ``charge_examined`` (the sub-chains of pattern expressions and
    MERGE) this operator and the expansions above it also charge every
    candidate and step they examine, bound or not, so a pattern predicate
    that rejects every step still meets the row budget and the deadline.
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
        charge_examined: bool = False,
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
        self.charge_examined = charge_examined

    def _rows(self) -> Iterator[Any]:
        pattern, anchor, filters = self.node_pattern, self.anchor, self.filters
        candidates = self.ctx._node_candidates
        bind = self.ctx._bind_node
        charge = self.state.charge
        examined = self.charge_examined
        for item in self.children[0]:
            row, used = (item, _NO_RELS) if self.from_rows else item
            for node in candidates(pattern, row, anchor):
                if examined:
                    charge()
                bound = bind(pattern, node, row, filters)
                if bound is None:
                    continue
                self.rows_out += 1
                charge()
                if self.track_path:
                    yield (bound, used, node, [node], [])
                else:
                    yield (bound, used, node, None, None)


class Expand(PhysicalOperator):
    """One relationship hop: input match states fan out along adjacency.

    Carries the whole per-hop protocol: relationship-uniqueness
    bookkeeping, rel-variable binding and rebinding consistency, pushed
    single-rel filters, endpoint verification, and path extension when a
    path variable is tracked.
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
        charge_examined: bool = False,
    ) -> None:
        super().__init__(state, (child,))
        self.ctx = ctx
        self.rel_pattern = rel_pattern
        self.node_pattern = node_pattern
        self.filters = filters
        self.maintain_used = maintain_used
        self.detail = detail
        self.charge_examined = charge_examined

    def _rows(self) -> Iterator[Any]:
        ctx = self.ctx
        rel_pattern, node_pattern, filters = self.rel_pattern, self.node_pattern, self.filters
        variable = rel_pattern.variable
        rel_filters = filters.get(variable) if filters and variable is not None else None
        maintain_used = self.maintain_used
        expand = ctx._expand_single
        bind = ctx._bind_node
        charge = self.state.charge
        examined = self.charge_examined
        for row, used, current, nodes, rels in self.children[0]:
            for rel, end_node in expand(rel_pattern, current, row, used):
                if examined:
                    charge()
                if variable is None:
                    rel_row = row
                elif variable in row:
                    if not _same_rel_binding(row[variable], rel):
                        continue
                    rel_row = row
                else:
                    if rel_filters and not ctx._passes_filters(rel.properties, rel_filters):
                        continue
                    rel_row = dict(row)
                    rel_row[variable] = rel
                end_row = bind(node_pattern, end_node, rel_row, filters)
                if end_row is None:
                    continue
                self.rows_out += 1
                charge()
                yield (
                    end_row,
                    used | {rel.rel_id} if maintain_used else used,
                    end_node,
                    None if nodes is None else nodes + [end_node],
                    None if nodes is None else rels + [rel],
                )


class VarLengthExpand(Expand):
    """Variable-length hop (``-[*m..n]->``): binds the relationship list."""

    name = "VarLengthExpand"

    def _rows(self) -> Iterator[Any]:
        ctx = self.ctx
        rel_pattern, node_pattern, filters = self.rel_pattern, self.node_pattern, self.filters
        variable = rel_pattern.variable
        charge = self.state.charge
        examined = self.charge_examined
        for row, used, current, nodes, rels in self.children[0]:
            for step_rels, end_node in ctx._expand_var_length(rel_pattern, current, row, used):
                if examined:
                    charge()
                if variable is None:
                    rel_row = row
                elif variable in row:
                    if not _same_rel_binding(row[variable], list(step_rels)):
                        continue
                    rel_row = row
                else:
                    rel_row = dict(row)
                    rel_row[variable] = list(step_rels)
                end_row = ctx._bind_node(node_pattern, end_node, rel_row, filters)
                if end_row is None:
                    continue
                if self.maintain_used:
                    new_used = used | {rel.rel_id for rel in step_rels}
                else:
                    new_used = used
                self.rows_out += 1
                charge()
                if nodes is None:
                    yield (end_row, new_used, end_node, None, None)
                else:
                    yield (end_row, new_used, end_node) + ctx._var_length_path(
                        nodes, rels, current, step_rels
                    )


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

    def _rows(self) -> Iterator[Any]:
        charge = self.state.charge
        for item in self.children[0]:
            row, used = (item, _NO_RELS) if self.from_rows else item
            for matched, used_after in self.ctx._match_shortest(
                self.part, row, used, self.filters
            ):
                self.rows_out += 1
                charge()
                yield matched if self.emit_row else (matched, used_after)


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

    def _rows(self) -> Iterator[Any]:
        path_variable = self.part.path_variable
        emit_row = self.emit_row
        charge = self.state.charge
        for row, used, _node, nodes, rels in self.children[0]:
            if path_variable is not None:
                path_nodes = list(reversed(nodes)) if self.reversed_part else nodes
                path_rels = list(reversed(rels)) if self.reversed_part else rels
                row = dict(row)
                row[path_variable] = Path(path_nodes, path_rels)
            self.rows_out += 1
            charge()
            yield row if emit_row else (row, used)


class PatternChain(NamedTuple):
    """A pattern part's chain fed from a :class:`RowSource`, run per row.

    Pattern predicates, ``EXISTS`` patterns, pattern comprehensions and
    MERGE match through one: :meth:`matches` plants the row they are
    evaluated on and drains the chain (or stops after its first row).
    """

    source: RowSource
    root: PhysicalOperator

    def matches(self, row: Row, first_only: bool = False) -> list[Row]:
        """Every row ``row`` extends to; only the first with ``first_only``."""
        self.source.row = row
        rows = iter(self.root)
        try:
            return list(islice(rows, 1)) if first_only else list(rows)
        finally:
            rows.close()


class OptionalMatch(PhysicalOperator):
    """OPTIONAL MATCH: per upstream row, run the pattern sub-pipeline.

    The sub-pipeline (parts + residual WHERE) hangs off a
    :class:`RowSource` leaf; for each upstream row the operator plants the
    row, runs the sub-tree afresh and streams its matches.  When a row
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

    def _rows(self) -> Iterator[Row]:
        charge = self.state.charge
        for row in self.children[0]:
            self.source.row = row
            matched = False
            for out in self.subroot:
                matched = True
                self.rows_out += 1
                charge()
                yield out
            if not matched:
                padded = dict(row)
                for name in self.new_variables:
                    padded.setdefault(name, None)
                self.rows_out += 1
                charge()
                yield padded


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

    def _rows(self) -> Iterator[Row]:
        pairs = self.pairs_in
        evaluate = self.ctx.evaluator.evaluate
        predicate = self.predicate
        charge = self.state.charge
        for item in self.children[0]:
            row = item[0] if pairs else item
            if is_truthy(evaluate(predicate, row)) is True:
                self.rows_out += 1
                charge()
                yield row


class Unwind(PhysicalOperator):
    """UNWIND: one output row per list element (null unwinds to nothing)."""

    name = "Unwind"

    def __init__(self, state: RuntimeState, child: PhysicalOperator, ctx, clause) -> None:
        super().__init__(state, (child,))
        self.ctx = ctx
        self.clause = clause
        self.detail = clause.variable

    def _rows(self) -> Iterator[Row]:
        expression, variable = self.clause.expression, self.clause.variable
        evaluate = self.ctx.evaluator.evaluate
        charge = self.state.charge
        for row in self.children[0]:
            value = evaluate(expression, row)
            if value is None:
                continue
            for element in value if isinstance(value, list) else (value,):
                new_row = dict(row)
                new_row[variable] = element
                self.rows_out += 1
                charge()
                yield new_row


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

    def _rows(self) -> Iterator[Any]:
        evaluate = self.ctx.evaluator.evaluate
        expressions = [item.expression for item in self.items]
        charge = self.state.charge
        for row in self.children[0]:
            entry = ([evaluate(expression, row) for expression in expressions], [row])
            self.rows_out += 1
            charge()
            yield entry


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

    def _rows(self) -> Iterator[Any]:
        rows = list(self.children[0])
        charge = self.state.charge
        for entry in _project_grouped(self.ctx, rows, self.items, self.grouping_indices):
            self.rows_out += 1
            charge()
            yield entry


class Distinct(PhysicalOperator):
    """Streaming DISTINCT over projection entries (first occurrence wins)."""

    name = "Distinct"

    def _rows(self) -> Iterator[Any]:
        seen: set = set()
        charge = self.state.charge
        for entry in self.children[0]:
            frozen = tuple(map(_freeze, entry[0]))
            if frozen in seen:
                continue
            seen.add(frozen)
            self.rows_out += 1
            charge()
            yield entry


class Sort(PhysicalOperator):
    """ORDER BY: blocking sort of projection entries.

    With ``top`` set (SKIP + LIMIT known) the operator is a TopK: the same
    sort, sliced to its first ``top`` entries.  Every entry's ORDER BY values
    are evaluated exactly once.  The canonical projected-value tie-break,
    which keeps planner-on/off output identical, is computed only for
    entries that tie on all of them (see :func:`_order`).
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

    def _rows(self) -> Iterator[Any]:
        entries = list(self.children[0])
        projection = self.projection
        charge = self.state.charge
        for entry in _order(
            self.ctx,
            entries,
            self.order_by,
            projection.items,
            projection.keys,
            projection.aggregated,
            self.top,
        ):
            self.rows_out += 1
            charge()
            yield entry


class Skip(PhysicalOperator):
    """SKIP: discards the first ``count`` entries, then streams."""

    name = "Skip"

    def __init__(self, state: RuntimeState, child: PhysicalOperator, count: int) -> None:
        super().__init__(state, (child,))
        self.count = count
        self.detail = str(count)

    def _rows(self) -> Iterator[Any]:
        remaining = self.count
        charge = self.state.charge
        for entry in self.children[0]:
            if remaining:
                remaining -= 1
                continue
            self.rows_out += 1
            charge()
            yield entry


class Limit(PhysicalOperator):
    """LIMIT: stops pulling upstream after ``count`` entries — the early
    termination the whole streaming refactor exists for."""

    name = "Limit"

    def __init__(
        self, state: RuntimeState, child: PhysicalOperator, count: int,
        exhaustive: bool = False,
    ) -> None:
        super().__init__(state, (child,))
        self.count = count
        self.detail = str(count)
        #: set when an updating clause runs below: LIMIT never stops an
        #: update's side effects, so a LIMIT 0 still pulls its input
        #: through.  A larger LIMIT pulls at least once, which already runs
        #: every write barrier below it in full.
        self.exhaustive = exhaustive

    def _rows(self) -> Iterator[Any]:
        remaining = self.count
        if remaining <= 0:
            if self.exhaustive:
                for _ in self.children[0]:
                    pass
            return
        charge = self.state.charge
        for entry in self.children[0]:
            self.rows_out += 1
            charge()
            yield entry
            remaining -= 1
            if not remaining:
                return


class AsRows(PhysicalOperator):
    """WITH boundary: projection entries back to plain binding rows."""

    name = "Rows"

    def __init__(
        self, state: RuntimeState, child: PhysicalOperator, projection
    ) -> None:
        super().__init__(state, (child,))
        self.projection = projection

    def _rows(self) -> Iterator[Row]:
        keys = self.projection.keys
        charge = self.state.charge
        for values, _env_rows in self.children[0]:
            row = dict(zip(keys, values))
            self.rows_out += 1
            charge()
            yield row


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

    def apply(self, rows: list[Row]) -> list[Row]:
        raise NotImplementedError

    def _rows(self) -> Iterator[Row]:
        written = self.apply(list(self.children[0]))
        charge = self.state.charge
        for row in written:
            self.rows_out += 1
            charge()
            yield row


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

    def _rows(self) -> Iterator[list[Any]]:
        child = self.children[0]
        if self.projection is None:
            for _ in child:
                pass
            return
        charge = self.state.charge
        for values, _env_rows in child:
            self.rows_out += 1
            charge()
            yield values


class UnionAppend(PhysicalOperator):
    """UNION / UNION ALL: streams branch after branch, no per-branch copy.

    Branches start lazily in textual order (so branch side effects keep
    their sequencing) and their column names are validated as each branch
    starts.  Plain UNION dedups across branches with the same value-
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

    def _rows(self) -> Iterator[list[Any]]:
        self.keys = None
        seen: set = set()
        charge = self.state.charge
        for branch in self.children:
            if self.keys is None:
                self.keys = branch.keys
            elif branch.keys != self.keys:
                raise CypherSyntaxError(
                    "all UNION sub-queries must return the same column names"
                )
            for values in branch:
                if not self.union_all:
                    frozen = tuple(map(_freeze, values))
                    if frozen in seen:
                        continue
                    seen.add(frozen)
                self.rows_out += 1
                charge()
                yield values


# ---------------------------------------------------------------------------
# PROFILE rendering
# ---------------------------------------------------------------------------

def render_profile(root: PhysicalOperator) -> str:
    """Render the executed operator tree as an indented text profile.

    One line per operator: label, rows produced, and inclusive wall-clock
    time.  UNION branches are labelled so per-branch sub-trees read
    separately.
    """
    lines: list[str] = []

    def walk(op: PhysicalOperator, depth: int) -> None:
        pad = "  " * depth
        lines.append(
            f"{pad}+- {op.label} -> {op.rows_out} rows ({op.elapsed_s * 1000.0:.3f} ms)"
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

def _project_grouped(
    ctx,
    rows: list[Row],
    items: list,
    grouping_indices: list[int],
) -> list[tuple[list[Any], list[Row]]]:
    """Group ``rows`` by the non-aggregate items and evaluate aggregates."""
    evaluate = ctx.evaluator.evaluate
    if grouping_indices:
        groups: dict[tuple, tuple[list[Any], list[Row]]] = {}
        expressions = [items[i].expression for i in grouping_indices]
        for row in rows:
            group_values = [evaluate(expression, row) for expression in expressions]
            group_key = tuple(map(_freeze, group_values))
            group = groups.get(group_key)
            if group is None:
                groups[group_key] = (group_values, [row])
            else:
                group[1].append(row)
        grouped: Any = groups.values()  # first-seen group order
    else:
        # A global aggregate is one group, even over zero rows (count(*) = 0).
        grouped = [([], rows)]

    produced: list[tuple[list[Any], list[Row]]] = []
    for group_values, group_rows in grouped:
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

    Every row's ORDER BY sort keys are evaluated exactly once, one column
    per ORDER BY item.  A row-index permutation is then sorted once per
    column, least significant first; ``list.sort`` stays stable under
    ``reverse=True``, so DESC needs no key wrapper.  Rows that tie on every
    column are ordered by the canonical tie-break (sort keys of the
    projected values), computed for those rows only, and otherwise keep
    input order.  ``top`` slices the same permutation.
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
            reused = next((j for j, item in enumerate(items) if item.expression == expr), None)
            plans.append(("agg", expr) if reused is None else ("reuse", reused))
        elif isinstance(expr, ast.Variable) and expr.name in key_set:
            # Aliases shadow pattern variables in ORDER BY scope; the
            # dict(zip(...)) env made the *last* duplicate key win.
            plans.append(("reuse", len(keys) - 1 - keys[::-1].index(expr.name)))
        elif expression_variables(expr).isdisjoint(key_set) and (
            reused := next((j for j, item in enumerate(items) if item.expression == expr), None)
        ) is not None:
            # Safe only when no alias shadows a variable the expression
            # reads (`RETURN a.x AS a ORDER BY a.x` must re-evaluate).
            plans.append(("reuse", reused))
        else:
            plans.append(("eval", expr))
            needs_env = True

    columns: list[list[tuple]] = [[] for _ in plans]
    appends = [column.append for column in columns]
    for values, env_rows in produced:
        if needs_env:
            base = dict(env_rows[0]) if env_rows else {}
            base.update(zip(keys, values))
        else:
            base = None
        for (kind, payload), append in zip(plans, appends):
            if kind == "reuse":
                value = values[payload]
            elif kind == "agg":
                value = evaluate_aggregate(payload, env_rows)
            else:
                value = evaluate(payload, base)
            append(sort_key(value))

    perm = list(range(len(produced)))
    for column, order_item in zip(reversed(columns), reversed(order_by)):
        perm.sort(key=column.__getitem__, reverse=order_item.descending)
    limit = top if top is not None and 0 <= top < len(perm) else len(perm)

    # Canonical tie-break over the projected values, only inside runs that
    # tie on every ORDER BY key: those rows would otherwise keep match
    # order, which depends on the chosen plan.  This keeps ordered output
    # identical whether the planner is on or off.  Values an ORDER BY item
    # reuses are equal across a run, so they are left out of the key.  The
    # scan for ties runs in C (``compress``/``map``); only runs starting
    # before ``limit`` count.
    reused_columns = {payload for kind, payload in plans if kind == "reuse"}
    tie_columns = [j for j in range(len(items)) if j not in reused_columns]
    if not tie_columns:
        return [produced[i] for i in perm[:limit]]
    merged = columns[0] if len(columns) == 1 else list(zip(*columns))
    ordered = [merged[i] for i in perm]
    runs: list[list[int]] = []
    for i in compress(count(1), map(eq, ordered[1:], ordered)):
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        elif i > limit:
            break
        else:
            runs.append([i - 1, i + 1])
    for start, stop in runs:
        perm[start:stop] = sorted(
            perm[start:stop], key=lambda i: _tie_break_key(produced[i][0], tie_columns)
        )
    return [produced[i] for i in perm[:limit]]


def _tie_break_key(values: list[Any], columns: list[int]) -> tuple:
    try:
        return tuple(map(sort_key, map(values.__getitem__, columns)))
    except CypherTypeError:
        return ()


#: the one group/dedup key every NaN freezes to
_NAN_KEY = ("nan",)


def _freeze(value: Any) -> Any:
    """Convert a value into a hashable group/dedup key.

    Keys follow openCypher equivalence, not equality: NaN is equivalent
    to NaN (one tagged key, whatever the float object), ``1`` to ``1.0``,
    but ``true`` is not ``1``.
    """
    cls = value.__class__
    if cls is str or cls is int or value is None:
        return value
    if cls is bool:
        # Tagged: ``True == 1`` in Python, but ``true <> 1`` in Cypher.
        return ("bool", value)
    if isinstance(value, float):
        return _NAN_KEY if value != value else value
    if isinstance(value, list):
        return ("list", tuple(map(_freeze, value)))
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


#: Expressions evaluated per row even inside an aggregating projection.
_PER_ROW = (ast.PatternPredicate, ast.PatternComprehension, ast.ExistsExpr,
            ast.Quantifier, ast.Reduce)


def _contains_aggregate(expr: Any) -> bool:
    """Walk an expression tree looking for aggregate calls."""
    cls = expr.__class__
    if cls is ast.CountStar or (cls is ast.FunctionCall and is_aggregate_function(expr.name)):
        return True
    if cls is tuple:
        return any(map(_contains_aggregate, expr))
    if isinstance(expr, _PER_ROW):
        return False
    for name in ast.CHILD_FIELDS.get(cls, ()):
        if _contains_aggregate(getattr(expr, name)):
            return True
    return False


def _same_rel_binding(existing: Any, candidate: Any) -> bool:
    """Is a rebound relationship variable consistent with its prior value?"""
    if isinstance(existing, Relationship) and isinstance(candidate, Relationship):
        return existing.rel_id == candidate.rel_id
    if isinstance(existing, list) and isinstance(candidate, list):
        return [r.rel_id for r in existing] == [r.rel_id for r in candidate]
    return False
