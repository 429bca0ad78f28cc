"""Physical operators: the pull-based (Volcano-style) execution layer.

The engine lowers each query shape into a tree of these operators once and
shares the tree across runs and threads: an operator holds no run state.
``op.open(run)`` starts one run of it, with ``run`` the execution context
of one query execution; the generator it returns iterates its children's
generators and yields its own rows lazily, so a downstream ``Limit``/
``TopK`` stops pulling and the entire upstream pipeline terminates early
instead of materialising every intermediate row at each clause boundary.
Only the genuinely blocking operators (``Sort``, ``Aggregate`` and the
write barriers) buffer rows; everything else streams.  Each emitted row
costs one generator resume per operator it crosses.

What a run needs and an operator cannot hold lives in the run: its
parameters and slot values, the SKIP/LIMIT counts resolved from them
(``run.bounds``), the row each sub-pipeline's ``Argument`` leaf yields
(``run.arguments``), and the :class:`RuntimeState` (``run.state``):

* **row budget** — every operator counts the rows it emits in ``rows_out``
  under its operator number.  A pattern operator (``AnchorScan``,
  ``Expand``, ``VarLengthExpand``, ``ShortestPath``) charges every
  candidate node and relationship it examines, bound or not; every other
  operator charges every row it emits, just before yielding it.  Exceeding
  the budget raises :class:`ResourceExhausted`, which the serving layer
  maps to graceful degradation instead of an OOM;
* **deadline** — the per-request serving deadline is checked by the same
  charge, cooperatively (every 256 charged units), so a runaway scan or a
  walk that binds nothing aborts with :class:`CypherDeadlineExceeded`
  instead of blowing past its budget.  An aggregate, and a sort computing
  ORDER BY keys, evaluate rows already drained; they read the deadline
  every 256 of them (:meth:`RuntimeState.paced`) without charging them;
* **profiling** — when on, each operator's generator is wrapped by
  :func:`_timed`, which adds the wall-clock time of every resume
  (inclusive of the children it pulls from) to ``elapsed_s``.  The row
  counters are always maintained.  Both feed the ``PROFILE`` tree
  rendering (:func:`render_profile`) and the ``ResultSet.profile``
  payload (:func:`profile_tree`).

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
from itertools import chain, compress, count, islice, zip_longest
from operator import eq
from sys import maxsize
from time import perf_counter
from typing import Any, Iterable, Iterator, NamedTuple, Optional

from ..graph.model import Node, Path, Relationship
from . import ast_nodes as ast
from .errors import (
    CypherDeadlineExceeded,
    CypherSyntaxError,
    CypherTypeError,
    ResourceExhausted,
)
from .evaluator import resolve
from .functions import is_aggregate_function
from .values import is_truthy, sort_key, sort_keys

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
    "SetProperties",
    "ProduceResults",
    "UnionAppend",
    "render_profile",
    "profile_tree",
    "derive_projection",
    "expression_variables",
]

Row = dict[str, Any]

#: deadline checks happen every this many charged units
_DEADLINE_STRIDE_MASK = 0xFF

#: the relationship-uniqueness set a pattern part starts from
_NO_RELS: frozenset = frozenset()


class RuntimeState:
    """Per-run state: row budget, deadline, profiling flag, and the rows
    and wall time of each of the ``size`` operators, by operator number."""

    __slots__ = (
        "deadline", "budget", "profiled", "rows", "limit", "rows_out", "elapsed_s", "evaluated",
    )

    def __init__(
        self, deadline=None, budget: Optional[int] = None, profiled: bool = False,
        size: int = 0,
    ):
        self.deadline = deadline
        self.budget = budget
        self.profiled = profiled
        #: units charged across *all* operators (the budget currency)
        self.rows = 0
        #: where a charge next takes :meth:`overflow`: the budget or the
        #: unit before the next deadline read, whichever comes first
        self._advance()
        #: rows each operator emitted
        self.rows_out = [0] * size
        self.elapsed_s = [0.0] * size
        #: drained rows evaluated uncharged (see :meth:`paced`)
        self.evaluated = 0

    def check_deadline(self) -> None:
        """Raise when the request deadline has already expired."""
        if self.deadline is not None and self.deadline.expired:
            raise CypherDeadlineExceeded(
                f"query exceeded its deadline after {self.rows} intermediate rows"
            )

    def charge(self, number: int) -> None:
        """Count one row emitted by operator ``number`` and charge it
        against the budget and the deadline.

        This is the charge of every operator but the pattern operators
        (anchor scans, expansions, shortest paths), which charge each
        candidate node and relationship they examine instead, bound or
        not, and only count the rows they emit.  Hot loops inline the
        charge: ``rows += 1``, then :meth:`overflow` past ``limit``.
        """
        self.rows_out[number] += 1
        self.rows += 1
        if self.rows > self.limit:
            self.overflow()

    def overflow(self) -> None:
        """A charge past ``limit``: raise past the budget, read the deadline
        once per ``_DEADLINE_STRIDE_MASK + 1`` units."""
        rows = self.rows
        if self.budget is not None and rows > self.budget:
            raise ResourceExhausted(
                f"query exceeded its intermediate row budget ({self.budget} rows)"
            )
        if self.deadline is not None and not (rows & _DEADLINE_STRIDE_MASK):
            self.check_deadline()
        self._advance()

    def paced(self, rows: list) -> Iterable[Any]:
        """``rows``, for a loop that evaluates rows already drained and
        charged (an aggregate's grouping keys and aggregated values, a
        sort's ORDER BY keys): the deadline is read before every 256th row
        such loops evaluate in the run.  Nothing is charged, so budgets and
        row counts stay as they are."""
        return rows if self.deadline is None else self._paced(rows)

    def _paced(self, rows: list) -> Iterator[Any]:
        for row in rows:
            self.evaluated += 1
            if not (self.evaluated & _DEADLINE_STRIDE_MASK):
                self.check_deadline()
            yield row

    def _advance(self) -> None:
        stride = maxsize if self.deadline is None else self.rows | _DEADLINE_STRIDE_MASK
        self.limit = stride if self.budget is None else min(stride, self.budget)


class PhysicalOperator:
    """Base operator: children, operator number, PROFILE label.

    Subclasses implement ``_rows(run)``, a generator that iterates its
    children (``for item in child.open(run)``) and charges every row it
    emits (``run.state.charge(self.number)`` or inline) before yielding it,
    or, for a pattern operator, every candidate it examines (see
    :meth:`RuntimeState.charge`).  The tree is
    immutable once lowered; ``number``, assigned at lowering, indexes the
    run's counters.  Every ``open`` is a fresh run of the operator:
    :class:`OptionalMatch` re-runs its sub-pipeline once per upstream row.
    """

    name = "Operator"
    detail = ""
    number = -1

    def __init__(self, children: tuple = ()) -> None:
        self.children = list(children)

    def describe(self, run: Any) -> str:
        """The EXPLAIN/PROFILE detail text in ``run``."""
        return self.detail

    def open(self, run: Any) -> Iterator[Any]:
        rows = self._rows(run)
        state = run.state
        return _timed(self.number, state.elapsed_s, rows) if state.profiled else rows

    def _rows(self, run: Any) -> Iterator[Any]:
        raise NotImplementedError


def _timed(number: int, elapsed_s: list[float], rows: Iterator[Any]) -> Iterator[Any]:
    """PROFILE only: add the time of every resume of ``rows`` to operator
    ``number``'s entry of ``elapsed_s``."""
    started = perf_counter()
    for row in rows:
        elapsed_s[number] += perf_counter() - started
        yield row
        started = perf_counter()
    elapsed_s[number] += perf_counter() - started


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------

class Init(PhysicalOperator):
    """Emits the single empty row every query pipeline starts from."""

    name = "Init"

    def _rows(self, run: Any) -> Iterator[Row]:
        run.state.charge(self.number)
        yield {}


class RowSource(PhysicalOperator):
    """Single-row leaf of a sub-pipeline re-run per outer row.

    Neo4j calls this ``Argument``: each run yields exactly the one row its
    :class:`OptionalMatch` or :class:`PatternChain` put in
    ``run.arguments`` under this operator's number before starting it.
    """

    name = "Argument"

    def _rows(self, run: Any) -> Iterator[Row]:
        run.state.charge(self.number)
        yield run.arguments[self.number]


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
    ``_bind_node``, so a stale plan can never change results.  Charges
    every candidate it tries, bound or not.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        node_pattern: ast.NodePattern,
        anchor,
        filters,
        track_path: bool,
        from_rows: bool,
        name: str,
        detail: str = "",
    ) -> None:
        super().__init__((child,))
        self.node_pattern = node_pattern
        self.anchor = anchor
        self.filters = filters
        self.track_path = track_path
        self.from_rows = from_rows
        self.name = name
        self.detail = detail

    def _rows(self, run: Any) -> Iterator[Any]:
        pattern, anchor, filters = self.node_pattern, self.anchor, self.filters
        candidates = run._node_candidates
        bind = run._bind_node
        state = run.state
        rows_out, number, track = state.rows_out, self.number, self.track_path
        for item in self.children[0].open(run):
            row, used = (item, _NO_RELS) if self.from_rows else item
            for node in candidates(pattern, row, anchor):
                state.rows += 1
                if state.rows > state.limit:
                    state.overflow()
                bound = bind(pattern, node, row, filters)
                if bound is None:
                    continue
                rows_out[number] += 1
                yield (bound, used, node, [node] if track else None, [] if track else None)


class Expand(PhysicalOperator):
    """One relationship hop: input match states fan out along adjacency.

    Carries the whole per-hop protocol in one frame: relationship-uniqueness
    bookkeeping, rel-variable binding and rebinding consistency, pushed
    single-rel filters, endpoint verification, and path extension when a
    path variable is tracked.  Unless the end node has inline properties or
    pushed filters, its labels are checked here and the row is copied once
    for both new variables.  Charges every relationship it reads from
    adjacency, before any of those checks.
    """

    name = "Expand"

    def __init__(
        self,
        child: PhysicalOperator,
        rel_pattern: ast.RelPattern,
        node_pattern: ast.NodePattern,
        filters,
        maintain_used: bool,
        detail: str = "",
    ) -> None:
        super().__init__((child,))
        self.rel_pattern = rel_pattern
        self.node_pattern = node_pattern
        self.filters = filters
        self.maintain_used = maintain_used
        self.detail = detail
        variable, end_variable = rel_pattern.variable, node_pattern.variable
        self.labels = frozenset(node_pattern.labels)
        #: the pushed filters on the relationship variable
        self.rel_filters = filters.get(variable) if filters and variable is not None else None
        #: whether the end node binds through ``_bind_node`` (see the class)
        self.bind_end = bool(node_pattern.properties or filters and filters.get(end_variable) or (
            end_variable is not None and end_variable == variable))

    def _rows(self, run: Any) -> Iterator[Any]:
        rel_pattern, node_pattern, filters = self.rel_pattern, self.node_pattern, self.filters
        variable, end_variable = rel_pattern.variable, node_pattern.variable
        rel_filters, labels, bind_end = self.rel_filters, self.labels, self.bind_end
        direction, types = rel_pattern.direction, rel_pattern.types or None
        adjacent, nodes = run.store.adjacent_relationships, run.store._nodes
        props = rel_pattern.properties
        maintain_used = self.maintain_used
        state = run.state
        rows_out, number = state.rows_out, self.number
        for row, used, current, path_nodes, path_rels in self.children[0].open(run):
            node_id = current.node_id
            rebinds, end_bound = variable in row, end_variable in row
            new_rel = variable is not None and not rebinds
            new_end = end_variable is not None and not end_bound
            end = row[end_variable] if end_bound else None
            # No direction re-check needed: the adjacency index is kept per
            # direction (self-loops included on both sides).
            for rel in adjacent(node_id, direction, types):
                state.rows += 1
                if state.rows > state.limit:
                    state.overflow()
                if rel.rel_id in used or props and not run._properties_match(rel, props, row):
                    continue
                if rebinds:
                    if not _same_rel_binding(row[variable], rel):
                        continue
                elif rel_filters and not run._passes_filters(rel.properties, rel_filters):
                    continue
                end_node = nodes[rel.end_id if rel.start_id == node_id else rel.start_id]
                if bind_end:
                    out = {**row, variable: rel} if new_rel else row
                    if (out := run._bind_node(node_pattern, end_node, out, filters)) is None:
                        continue
                elif not labels <= end_node.labels or end_bound and not (
                    isinstance(end, Node) and end.node_id == end_node.node_id
                ):
                    continue
                elif new_rel or new_end:
                    out = dict(row)
                    if new_rel:
                        out[variable] = rel
                    if new_end:
                        out[end_variable] = end_node
                else:
                    out = row
                rows_out[number] += 1
                yield (out, used | {rel.rel_id} if maintain_used else used, end_node,
                       None if path_nodes is None else path_nodes + [end_node],
                       None if path_nodes is None else path_rels + [rel])


class VarLengthExpand(Expand):
    """Variable-length hop (``-[*m..n]->``): binds the relationship list.
    The walk (``_expand_var_length``) charges every step it takes."""

    name = "VarLengthExpand"

    def _rows(self, run: Any) -> Iterator[Any]:
        rel_pattern, node_pattern, filters = self.rel_pattern, self.node_pattern, self.filters
        variable, labels = rel_pattern.variable, self.labels
        rows_out, number = run.state.rows_out, self.number
        for row, used, current, nodes, rels in self.children[0].open(run):
            for step_rels, end_node in run._expand_var_length(rel_pattern, current, row, used):
                if not labels <= end_node.labels:
                    continue
                if variable is None:
                    rel_row = row
                elif variable in row:
                    if not _same_rel_binding(row[variable], list(step_rels)):
                        continue
                    rel_row = row
                else:
                    rel_row = dict(row)
                    rel_row[variable] = list(step_rels)
                end_row = run._bind_node(node_pattern, end_node, rel_row, filters)
                if end_row is None:
                    continue
                if self.maintain_used:
                    new_used = used | {rel.rel_id for rel in step_rels}
                else:
                    new_used = used
                rows_out[number] += 1
                if nodes is None:
                    yield (end_row, new_used, end_node, None, None)
                else:
                    yield (end_row, new_used, end_node) + run._var_length_path(
                        nodes, rels, current, step_rels
                    )


class ShortestPath(PhysicalOperator):
    """``shortestPath()`` / ``allShortestPaths()`` for one pattern part: one
    breadth-first search per pair of endpoint candidates, read through the
    planned access paths (the end's with the start bound).
    ``_match_shortest`` charges every endpoint candidate it tries and every
    step of its searches."""

    name = "ShortestPath"

    def __init__(
        self,
        child: PhysicalOperator,
        part: ast.PatternPart,
        start_anchor,
        end_anchor,
        filters,
        from_rows: bool,
        emit_row: bool,
        detail: str = "",
    ) -> None:
        super().__init__((child,))
        self.part = part
        self.start_anchor = start_anchor
        self.end_anchor = end_anchor
        self.filters = filters
        self.from_rows = from_rows
        self.emit_row = emit_row
        self.detail = detail
        self.all_paths = part.shortest == "all"
        # A plain relationship is one hop; a max_hops of None is the
        # engine's max_var_length.
        rel = part.relationships[0]
        self.min_hops = 1 if rel.min_hops is None else rel.min_hops
        self.max_hops = rel.max_hops if rel.var_length else 1

    def _rows(self, run: Any) -> Iterator[Any]:
        rows_out, number = run.state.rows_out, self.number
        for item in self.children[0].open(run):
            row, used = (item, _NO_RELS) if self.from_rows else item
            for matched, used_after in run._match_shortest(self, row, used):
                rows_out[number] += 1
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
        child: PhysicalOperator,
        part: ast.PatternPart,
        reversed_part: bool,
        emit_row: bool,
        detail: str = "",
    ) -> None:
        super().__init__((child,))
        self.part = part
        self.path_variable = part.path_variable
        self.reversed_part = reversed_part
        self.emit_row = emit_row
        self.detail = detail

    def _rows(self, run: Any) -> Iterator[Any]:
        path_variable, reversed_part = self.path_variable, self.reversed_part
        emit_row = self.emit_row
        state = run.state
        rows_out, number = state.rows_out, self.number
        for row, used, _node, nodes, rels in self.children[0].open(run):
            if path_variable is not None:
                path_nodes = list(reversed(nodes)) if reversed_part else nodes
                path_rels = list(reversed(rels)) if reversed_part else rels
                row = dict(row)
                row[path_variable] = Path(path_nodes, path_rels)
            rows_out[number] += 1
            state.rows += 1
            if state.rows > state.limit:
                state.overflow()
            yield row if emit_row else (row, used)


class PatternChain(NamedTuple):
    """A pattern part's chain fed from a :class:`RowSource`, run per row.

    Pattern predicates, ``EXISTS`` patterns and pattern comprehensions
    match through one: :meth:`matches` hands the row they are evaluated on
    to the source and drains the chain (or stops after its first row).
    """

    source: RowSource
    root: PhysicalOperator

    def matches(self, run: Any, row: Row, first_only: bool = False) -> list[Row]:
        """Every row ``row`` extends to in ``run``; only the first with
        ``first_only``."""
        run.arguments[self.source.number] = row
        rows = self.root.open(run)
        try:
            return list(islice(rows, 1)) if first_only else list(rows)
        finally:
            rows.close()


class OptionalMatch(PhysicalOperator):
    """OPTIONAL MATCH: per upstream row, run the pattern sub-pipeline.

    The sub-pipeline (parts + residual WHERE) hangs off a
    :class:`RowSource` leaf; for each upstream row the operator hands the
    row to the source, runs the sub-tree afresh and streams its matches.
    When a row produces none, it is emitted once padded with nulls for
    every variable the pattern could have bound.
    """

    name = "OptionalMatch"

    def __init__(
        self,
        child: PhysicalOperator,
        subroot: PhysicalOperator,
        source: RowSource,
        new_variables: list[str],
    ) -> None:
        super().__init__((child, subroot))
        self.subroot = subroot
        self.source = source
        self.new_variables = new_variables

    def _rows(self, run: Any) -> Iterator[Row]:
        charge = run.state.charge
        number = self.number
        arguments, source = run.arguments, self.source.number
        for row in self.children[0].open(run):
            arguments[source] = row
            matched = False
            for out in self.subroot.open(run):
                matched = True
                charge(number)
                yield out
            if not matched:
                padded = dict(row)
                for name in self.new_variables:
                    padded.setdefault(name, None)
                charge(number)
                yield padded


class Filter(PhysicalOperator):
    """Residual WHERE: keeps rows whose predicate is ternary-true.

    ``pairs_in`` consumes the ``(row, used)`` pairs a MATCH part chain
    emits (the clause boundary drops the uniqueness set); otherwise plain
    rows, as after a WITH projection.  Always emits plain rows.
    """

    name = "Filter"
    detail = "WHERE"

    def __init__(self, child: PhysicalOperator, predicate: ast.Expr, pairs_in: bool) -> None:
        super().__init__((child,))
        self.predicate = predicate
        self.pairs_in = pairs_in

    def _rows(self, run: Any) -> Iterator[Row]:
        pairs = self.pairs_in
        evaluate = run.evaluator.evaluate
        predicate = self.predicate
        charge = run.state.charge
        number = self.number
        for item in self.children[0].open(run):
            row = item[0] if pairs else item
            if is_truthy(evaluate(predicate, row)) is True:
                charge(number)
                yield row


class Unwind(PhysicalOperator):
    """UNWIND: one output row per list element (null unwinds to nothing)."""

    name = "Unwind"

    def __init__(self, child: PhysicalOperator, clause) -> None:
        super().__init__((child,))
        self.clause = clause
        self.detail = clause.variable

    def _rows(self, run: Any) -> Iterator[Row]:
        expression, variable = self.clause.expression, self.clause.variable
        evaluate = run.evaluator.evaluate
        charge = run.state.charge
        number = self.number
        for row in self.children[0].open(run):
            value = evaluate(expression, row)
            if value is None:
                continue
            for element in value if isinstance(value, list) else (value,):
                new_row = dict(row)
                new_row[variable] = element
                charge(number)
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


class _Projection(PhysicalOperator):
    """The operator that projects one WITH/RETURN clause's items.

    ``items``, ``keys``, ``aggregated`` and ``grouping`` are
    :func:`derive_projection`'s result, fixed at lowering.
    """

    def __init__(
        self, child: PhysicalOperator, layout: tuple[list, list[str], bool, list[int]]
    ) -> None:
        super().__init__((child,))
        self.items, self.keys, self.aggregated, self.grouping = layout
        #: each item's expression with its evaluator handler
        self.handlers = resolve(item.expression for item in self.items)

    def describe(self, run: Any) -> str:
        return ", ".join(self.keys)


class Project(_Projection):
    """Streaming projection: one ``(values, (row,))`` entry per input row."""

    name = "Project"

    def _rows(self, run: Any) -> Iterator[Any]:
        evaluator, state = run.evaluator, run.state
        handlers = self.handlers
        rows_out, number = state.rows_out, self.number
        for row in self.children[0].open(run):
            entry = ([handler(evaluator, expr, row) for handler, expr in handlers], (row,))
            rows_out[number] += 1
            state.rows += 1
            if state.rows > state.limit:
                state.overflow()
            yield entry


class Aggregate(_Projection):
    """Grouped aggregation: blocking by nature (groups need every row).

    Produces one ``(values, group_rows)`` entry per group, in first-seen
    group order; a global aggregate over zero rows still produces its one
    row (``count(*) = 0``).
    """

    name = "Aggregate"

    def _rows(self, run: Any) -> Iterator[Any]:
        rows = list(self.children[0].open(run))
        charge = run.state.charge
        number = self.number
        for entry in _project_grouped(run, rows, self.items, self.handlers, self.grouping):
            charge(number)
            yield entry


class Distinct(PhysicalOperator):
    """Streaming DISTINCT over projection entries (first occurrence wins)."""

    name = "Distinct"

    def _rows(self, run: Any) -> Iterator[Any]:
        seen: set = set()
        charge = run.state.charge
        number = self.number
        for entry in self.children[0].open(run):
            frozen = tuple(map(_freeze, entry[0]))
            if frozen in seen:
                continue
            seen.add(frozen)
            charge(number)
            yield entry


class Sort(PhysicalOperator):
    """ORDER BY: blocking sort of projection entries.

    With ``top`` set (the indexes of the run's SKIP and LIMIT counts) the
    operator is a TopK: the same sort, sliced to its first SKIP + LIMIT
    entries.  Every entry's ORDER BY values are evaluated exactly once.
    The canonical projected-value tie-break, which keeps planner-on/off
    output identical, is computed only for entries that tie on all of them
    (see :func:`_order`).
    """

    def __init__(
        self,
        child: PhysicalOperator,
        order_by,
        projection: _Projection,
        top: Optional[tuple[int, ...]] = None,
    ) -> None:
        super().__init__((child,))
        self.order_by = order_by
        self.top = top
        self.name = "TopK" if top is not None else "Sort"
        #: how each ORDER BY item's values are obtained, over the layout of
        #: the Project/Aggregate feeding this sort
        self.plan = _order_plan(
            order_by, projection.items, projection.keys, projection.aggregated)

    def _top(self, run: Any) -> Optional[int]:
        return None if self.top is None else sum(run.bounds[i] for i in self.top)

    def describe(self, run: Any) -> str:
        top = self._top(run)
        return f"{len(self.order_by)} keys" + (f", top {top}" if top is not None else "")

    def _rows(self, run: Any) -> Iterator[Any]:
        entries = list(self.children[0].open(run))
        state = run.state
        rows_out, number = state.rows_out, self.number
        for entry in _order(run, entries, self.order_by, self.plan, self._top(run)):
            rows_out[number] += 1
            state.rows += 1
            if state.rows > state.limit:
                state.overflow()
            yield entry


class Skip(PhysicalOperator):
    """SKIP: discards the first ``run.bounds[bound]`` entries, then streams.

    A run that skips none passes its child's rows straight through, and
    PROFILE leaves the operator out of that run's tree.
    """

    name = "Skip"

    def __init__(self, child: PhysicalOperator, bound: int) -> None:
        super().__init__((child,))
        self.bound = bound

    def describe(self, run: Any) -> str:
        return str(run.bounds[self.bound])

    def open(self, run: Any) -> Iterator[Any]:
        if not run.bounds[self.bound]:
            return self.children[0].open(run)
        return super().open(run)

    def _rows(self, run: Any) -> Iterator[Any]:
        remaining = run.bounds[self.bound]
        charge = run.state.charge
        number = self.number
        for entry in self.children[0].open(run):
            if remaining:
                remaining -= 1
                continue
            charge(number)
            yield entry


class Limit(PhysicalOperator):
    """LIMIT: stops pulling upstream after ``run.bounds[bound]`` entries —
    the early termination the whole streaming refactor exists for."""

    name = "Limit"

    def __init__(self, child: PhysicalOperator, bound: int, exhaustive: bool = False) -> None:
        super().__init__((child,))
        self.bound = bound
        #: set when an updating clause runs below: LIMIT never stops an
        #: update's side effects, so a LIMIT 0 still pulls its input
        #: through.  A larger LIMIT pulls at least once, which already runs
        #: every write barrier below it in full.
        self.exhaustive = exhaustive

    def describe(self, run: Any) -> str:
        return str(run.bounds[self.bound])

    def _rows(self, run: Any) -> Iterator[Any]:
        remaining = run.bounds[self.bound]
        if remaining <= 0:
            if self.exhaustive:
                for _ in self.children[0].open(run):
                    pass
            return
        charge = run.state.charge
        number = self.number
        for entry in self.children[0].open(run):
            charge(number)
            yield entry
            remaining -= 1
            if not remaining:
                return


class AsRows(PhysicalOperator):
    """WITH boundary: projection entries back to plain binding rows."""

    name = "Rows"

    def __init__(self, child: PhysicalOperator, projection: _Projection) -> None:
        super().__init__((child,))
        self.projection = projection

    def _rows(self, run: Any) -> Iterator[Row]:
        keys = self.projection.keys
        charge = run.state.charge
        number = self.number
        for values, _env_rows in self.children[0].open(run):
            row = dict(zip(keys, values))
            charge(number)
            yield row


# ---------------------------------------------------------------------------
# Write barriers
# ---------------------------------------------------------------------------

class _WriteBarrier(PhysicalOperator):
    """Write clauses are full barriers: Cypher's clause-boundary semantics
    require every upstream row to exist before any write applies (and any
    later clause observes the mutated graph)."""

    def __init__(self, child: PhysicalOperator, clause) -> None:
        super().__init__((child,))
        self.clause = clause

    def apply(self, run: Any, rows: list[Row]) -> list[Row]:
        raise NotImplementedError

    def _rows(self, run: Any) -> Iterator[Row]:
        written = self.apply(run, list(self.children[0].open(run)))
        charge = run.state.charge
        number = self.number
        for row in written:
            charge(number)
            yield row


class Create(_WriteBarrier):
    name = "Create"

    def apply(self, run: Any, rows: list[Row]) -> list[Row]:
        return run.apply_create(rows, self.clause)


class SetProperties(_WriteBarrier):
    name = "Set"

    def apply(self, run: Any, rows: list[Row]) -> list[Row]:
        return run.apply_set(rows, self.clause)


# ---------------------------------------------------------------------------
# Result production
# ---------------------------------------------------------------------------

class ProduceResults(PhysicalOperator):
    """Pipeline root: projection entries → result value lists.

    Without a RETURN clause (pure write queries) the operator drains its
    child so every write barrier fires, and yields nothing.
    """

    name = "ProduceResults"

    def __init__(self, child: PhysicalOperator, projection: Optional[_Projection] = None) -> None:
        super().__init__((child,))
        self.projection = projection

    def keys(self) -> list[str]:
        """The result's column names, in a list of the caller's own."""
        return list(self.projection.keys) if self.projection is not None else []

    def describe(self, run: Any) -> str:
        return ", ".join(self.keys())

    def _rows(self, run: Any) -> Iterator[list[Any]]:
        child = self.children[0].open(run)
        if self.projection is None:
            for _ in child:
                pass
            return
        state = run.state
        rows_out, number = state.rows_out, self.number
        for values, _env_rows in child:
            rows_out[number] += 1
            state.rows += 1
            if state.rows > state.limit:
                state.overflow()
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

    def __init__(self, branches: list[ProduceResults], union_all: bool) -> None:
        super().__init__(tuple(branches))
        self.union_all = union_all
        self.detail = "ALL" if union_all else ""

    def keys(self) -> list[str]:
        """The result's column names: the first branch's."""
        return self.children[0].keys()

    def _rows(self, run: Any) -> Iterator[list[Any]]:
        keys = None
        seen: set = set()
        charge = run.state.charge
        number = self.number
        for branch in self.children:
            if keys is None:
                keys = branch.keys()
            elif branch.keys() != keys:
                raise CypherSyntaxError(
                    "all UNION sub-queries must return the same column names"
                )
            for values in branch.open(run):
                if not self.union_all:
                    frozen = tuple(map(_freeze, values))
                    if frozen in seen:
                        continue
                    seen.add(frozen)
                charge(number)
                yield values


# ---------------------------------------------------------------------------
# EXPLAIN / PROFILE rendering
# ---------------------------------------------------------------------------

def _children(op: PhysicalOperator, run: Any) -> list[PhysicalOperator]:
    """``op``'s children in ``run``: a Skip that skips none passes its child
    through and is not part of the run's tree."""
    return [
        child.children[0] if type(child) is Skip and not run.bounds[child.bound] else child
        for child in op.children
    ]


def profile_tree(op: PhysicalOperator, run: Any) -> dict:
    """``run``'s operator tree as a JSON-safe dict (``ResultSet.profile``).

    ``time_ms`` is inclusive of children; ``self_time_ms`` subtracts the
    direct children's inclusive time (clamped at zero — timer granularity
    can make the difference marginally negative).  A run that was not
    profiled (EXPLAIN's) has no rows or times to report: its nodes carry
    only ``operator``, ``detail`` and ``children``.
    """
    state = run.state
    shown = _children(op, run)
    payload: dict[str, Any] = {"operator": op.name, "detail": op.describe(run)}
    if state.profiled:
        elapsed_s = state.elapsed_s
        time_ms = elapsed_s[op.number] * 1000.0
        self_ms = max(0.0, time_ms - sum(elapsed_s[child.number] for child in shown) * 1000.0)
        payload["rows"] = state.rows_out[op.number]
        payload["time_ms"] = round(time_ms, 4)
        payload["self_time_ms"] = round(self_ms, 4)
    if shown:
        payload["children"] = [profile_tree(child, run) for child in shown]
    return payload


def render_profile(profile: dict) -> str:
    """Render a :func:`profile_tree` dict as indented text.

    One line per operator: its name and detail, then, when the tree has
    them, the rows it produced and its inclusive wall-clock time (EXPLAIN's
    tree has neither).  UNION branches are labelled so per-branch sub-trees
    read separately.
    """
    lines: list[str] = []

    def walk(node: dict, depth: int) -> None:
        pad = "  " * depth
        line = f"{pad}+- {node['operator']}"
        if node["detail"]:
            line += f"({node['detail']})"
        if "rows" in node:
            line += f" -> {node['rows']} rows ({node['time_ms']:.3f} ms)"
        lines.append(line)
        children = node.get("children", ())
        if node["operator"] == UnionAppend.name:
            for index, child in enumerate(children):
                lines.append(f"{pad}   UNION branch {index + 1}:")
                walk(child, depth + 2)
        else:
            for child in children:
                walk(child, depth + 1)

    walk(profile, 0)
    return "\n".join(lines)


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
    run,
    rows: list[Row],
    items: list,
    handlers: list,
    grouping_indices: list[int],
) -> list[tuple[list[Any], list[Row]]]:
    """Group ``rows`` by the non-aggregate items and evaluate aggregates."""
    evaluator = run.evaluator
    if grouping_indices:
        groups: dict[tuple, tuple[list[Any], list[Row]]] = {}
        grouping = [handlers[i] for i in grouping_indices]
        for row in run.state.paced(rows):
            group_values = [handler(evaluator, expr, row) for handler, expr in grouping]
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
                values.append(run.evaluator.evaluate_aggregate(item.expression, group_rows))
        produced.append((values, group_rows))
    return produced


class _OrderPlan(NamedTuple):
    """How :func:`_order` obtains each ORDER BY item's values for one
    projection layout, decided once instead of per entry.

    ``steps`` holds one per ORDER BY item:

    * ``("reuse", j)`` — the projection already evaluated this exact
      expression (or the item is a plain output alias); read values[j],
      no re-evaluation;
    * ``("agg", expr)`` — aggregate over the group's env rows;
    * ``("eval", expr)`` — evaluate against the alias-extended row.

    ``tie_columns`` are the projected columns the canonical tie-break
    keys on: every one no step reuses.
    """

    steps: list[tuple]
    reuse_only: bool
    needs_env: bool
    keys: list[str]
    tie_columns: list[int]


def _order_plan(order_by, items: list, keys: list[str], aggregated: bool) -> _OrderPlan:
    """The :class:`_OrderPlan` of ``order_by`` over a projection's layout."""
    key_set = set(keys)
    steps: list[tuple] = []
    for order_item in order_by:
        expr = order_item.expression
        if aggregated and _contains_aggregate(expr):
            reused = next((j for j, item in enumerate(items) if item.expression == expr), None)
            steps.append(("agg", expr) if reused is None else ("reuse", reused))
        elif isinstance(expr, ast.Variable) and expr.name in key_set:
            # Aliases shadow pattern variables in ORDER BY scope; the
            # dict(zip(...)) env made the *last* duplicate key win.
            steps.append(("reuse", len(keys) - 1 - keys[::-1].index(expr.name)))
        elif expression_variables(expr).isdisjoint(key_set) and (
            reused := next((j for j, item in enumerate(items) if item.expression == expr), None)
        ) is not None:
            # Safe only when no alias shadows a variable the expression
            # reads (`RETURN a.x AS a ORDER BY a.x` must re-evaluate).
            steps.append(("reuse", reused))
        else:
            steps.append(("eval", expr))
    # Values an ORDER BY item reuses are equal across a tie, so they are
    # left out of the tie-break key.
    reused_columns = {payload for kind, payload in steps if kind == "reuse"}
    return _OrderPlan(
        steps,
        reuse_only=all(kind == "reuse" for kind, _ in steps),
        needs_env=any(kind == "eval" for kind, _ in steps),
        keys=keys,
        tie_columns=[j for j in range(len(items)) if j not in reused_columns],
    )


def _order(
    run,
    produced: list[tuple[list[Any], list[Row]]],
    order_by,
    plan: _OrderPlan,
    top: Optional[int] = None,
) -> list[tuple[list[Any], list[Row]]]:
    """Sort ``produced``; with ``top`` set, only the first ``top`` rows.

    Every row's ORDER BY values are evaluated exactly once, one column
    per ORDER BY item, as ``plan`` says, and each column becomes keys in
    one pass (:func:`~.values.sort_keys`).  A row-index permutation is then
    sorted once per column, least significant first; ``list.sort`` stays
    stable under ``reverse=True``, so DESC needs no key wrapper.  Rows that
    tie on every column are ordered by the canonical tie-break (sort keys
    of the projected values), computed for those rows only, and otherwise
    keep input order.  ``top`` slices the same permutation.
    """
    steps = plan.steps
    if plan.reuse_only:
        raw: list[list[Any]] = [[values[j] for values, _ in produced] for _, j in steps]
    else:
        evaluate = run.evaluator.evaluate
        evaluate_aggregate = run.evaluator.evaluate_aggregate
        needs_env, keys = plan.needs_env, plan.keys
        raw = [[] for _ in steps]
        appends = [column.append for column in raw]
        try:
            for values, env_rows in run.state.paced(produced):
                if needs_env:
                    base = dict(env_rows[0]) if env_rows else {}
                    base.update(zip(keys, values))
                else:
                    base = None
                for (kind, payload), append in zip(steps, appends):
                    if kind == "reuse":
                        append(values[payload])
                    elif kind == "agg":
                        append(evaluate_aggregate(payload, env_rows))
                    else:
                        append(evaluate(payload, base))
        except Exception:
            # A value before this one that ``sort_key`` rejects raises first.
            for value in chain.from_iterable(zip_longest(*raw)):
                sort_key(value)
            raise
    columns = list(map(sort_keys, raw))
    if len(produced) < 2:  # nothing to order, once the keys have been made
        return produced if top is None else produced[:top]

    perm = list(range(len(produced)))
    for column, order_item in zip(reversed(columns), reversed(order_by)):
        perm.sort(key=column.__getitem__, reverse=order_item.descending)
    limit = top if top is not None and 0 <= top < len(perm) else len(perm)

    # Canonical tie-break over the projected values, only inside runs that
    # tie on every ORDER BY key: those rows would otherwise keep match
    # order, which depends on the chosen plan.  This keeps ordered output
    # identical whether the planner is on or off.  The scan for ties runs
    # in C (``compress``/``map``); only runs starting before ``limit`` count.
    tie_columns = plan.tie_columns
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
    # The tie-break keys are key columns too, made over the tied rows; a
    # value ``sort_key`` rejects falls back to one key per row.
    tied = [i for start, stop in runs for i in perm[start:stop]]
    try:
        keys = zip(*(sort_keys([produced[i][0][j] for i in tied]) for j in tie_columns))
        key = dict(zip(tied, keys)).__getitem__
    except (CypherTypeError, OverflowError):
        def key(i: int) -> tuple:
            try:
                return tuple(sort_key(produced[i][0][j]) for j in tie_columns)
            except CypherTypeError:
                return ()
    for start, stop in runs:
        perm[start:stop] = sorted(perm[start:stop], key=key)
    return [produced[i] for i in perm[:limit]]


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
