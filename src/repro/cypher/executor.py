"""Query executor: evaluates a parsed Cypher AST against a GraphStore.

The engine lowers each query into a tree of pull-based physical operators
(:mod:`repro.cypher.operators`): MATCH clauses are planned by
:mod:`repro.cypher.planner` against live graph statistics.  The planner
ranks both ends of each pattern part (bound variable, then exact lookup,
then smallest-label scan, then all-nodes scan) and anchors the better
one; when both ends are label scans, the end with fewer label rows plus
first-hop edges anchors, and every other tie goes left to right.  WHERE
equality/IN/range predicates are pushed down into lookups and bind-time
filters, and each planned part becomes an explicit
``AnchorScan → Expand* → Match`` operator chain.  The tree executes
Volcano-style, one generator per operator: each iterates its child's
generator and charges every row it emits inline, so a row costs one
generator resume per operator it crosses, and a downstream LIMIT/top-k
stops pulling and the whole upstream pipeline terminates early.  Only
blocking operators (Sort, Aggregate, write barriers) materialise
rows.  One bounded LRU keyed by query text holds each query's
parsed tree and, for a read-only query, its last result, reused while
the graph's statistics version is unchanged.  Every execution plans
afresh against the current statistics; ``planner=False`` is the escape
hatch that falls back to the naive shape-only heuristics (via a
row-at-a-time ``Match`` fallback operator, so results stay bit-identical
to planned execution).

Entry points: :class:`CypherEngine` — ``engine.run(query, **params)``
for the classic API, ``engine.execute(query, params, deadline=...,
row_budget=..., profile=...)`` for deadline-aware, budgeted, profiled
execution, and ``engine.profile(query, **params)`` for the per-operator
``PROFILE`` tree (rows produced + wall-time per operator).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterable, Iterator, Optional, Union

from ..faults import fault_point
from ..graph.model import Node, Path, Relationship
from ..graph.store import GraphStore
from . import ast_nodes as ast
from . import operators as ops
from .errors import CypherRuntimeError, CypherSyntaxError, CypherTypeError
from .functions import (
    binary_operation,
    call_aggregate,
    call_scalar,
    compare_once,
    is_aggregate_function,
    percentile,
)
from .operators import (
    RuntimeState,
    _contains_aggregate,
    _same_rel_binding,
    profile_tree,
    render_profile,
)
from .parser import parse
from .planner import (
    AnchorPlan,
    Filters,
    MatchPlan,
    PartPlan,
    PushedFilter,
    needs_used_tracking,
    plan_query,
)
from .result import Record, ResultSet
from .safety import tree_is_read_only
from .values import cypher_equals, is_truthy

__all__ = ["CypherEngine", "execute"]

Row = dict[str, Any]


def execute(store: GraphStore, query: str, **params: Any) -> ResultSet:
    """One-shot convenience wrapper around :class:`CypherEngine`."""
    return CypherEngine(store).run(query, **params)


_MISSING = object()


class _LRUCache(OrderedDict):
    """Bounded mapping with least-recently-used eviction.

    A thin :class:`OrderedDict` wrapper: hits move to the back, inserts
    evict from the front once ``capacity`` is exceeded, handing each
    evicted value to ``on_evict``.  Sustained mixed workloads stay warm
    instead of thrashing on a clear-everything reset.  One engine serves
    every HTTP worker thread, so lookups and inserts hold a lock: an
    insert can otherwise evict a key between a reader's membership test
    and its ``move_to_end``.
    """

    def __init__(self, capacity: int = 1024, on_evict: Any = None) -> None:
        super().__init__()
        self.capacity = capacity
        self.on_evict = on_evict
        self._lock = threading.Lock()

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            value = super().get(key, _MISSING)
            if value is _MISSING:
                return default
            self.move_to_end(key)
            return value

    def __setitem__(self, key: Any, value: Any) -> None:
        with self._lock:
            super().__setitem__(key, value)
            self.move_to_end(key)
            while len(self) > self.capacity:
                _, evicted = self.popitem(last=False)
                if self.on_evict is not None:
                    self.on_evict(evicted)


class _QueryEntry:
    """Everything the engine keeps for one query text.

    ``memo`` is ``(stats_version, result, rows_charged)``, replaced by one
    assignment, so a concurrent reader sees a whole tuple or the old one.
    """

    __slots__ = ("tree", "read_only", "memo")

    def __init__(self, tree: ast.Query) -> None:
        self.tree = tree
        self.read_only = tree_is_read_only(tree)
        self.memo: Optional[tuple[int, ResultSet, int]] = None


class CypherEngine:
    """Executes Cypher text against one :class:`GraphStore`.

    The engine keeps one entry per query text in a bounded LRU: the parsed
    tree and, for a read-only query, the last result.  A repeated query
    skips the parser, and a repeated read-only query without parameters or
    PROFILE on an unchanged graph returns its last result without
    executing.  Every execution that does run plans against the current
    statistics; every store mutation bumps ``stats_version``, which
    retires the memo.  ``planner=False`` disables planning entirely: the
    semantic reference that planned execution is checked against.
    """

    def __init__(
        self,
        store: GraphStore,
        max_var_length: int = 32,
        planner: bool = True,
        cache_size: int = 1024,
        compile_expressions: bool = False,  # stub: benchmarks/e2e/checks.py passes False
        csr_snapshot: bool = False,  # stub: benchmarks/e2e/checks.py passes False
    ) -> None:
        if compile_expressions:  # stub
            raise ValueError("expression compilation was removed; only False is accepted")
        if csr_snapshot:
            raise ValueError("snapshot traversal was removed; only False is accepted")
        self.store = store
        self.max_var_length = max_var_length
        self.planner = planner
        self._entries: _LRUCache = _LRUCache(cache_size, on_evict=self._drop_memo)
        # Entries holding a memo, oldest memo first, with its row count.
        # Memoised rows stay at or below the graph's node + relationship
        # count: a new memo drops the oldest ones until it fits.
        self._memo_lock = threading.Lock()
        self._memos: OrderedDict[_QueryEntry, int] = OrderedDict()
        self._memoised_rows = 0
        self._result_hits = 0

    def compile_metrics(self) -> dict[str, int]:  # stub: benchmarks/e2e/workloads.py calls it
        return {}

    def cache_stats(self) -> dict[str, int]:
        """Query-cache counters: cached texts, memo hits, memoised rows."""
        with self._memo_lock:
            return {
                "entries": len(self._entries),
                "result_hits": self._result_hits,
                "memoised_rows": self._memoised_rows,
            }

    def run(self, query: str, **params: Any) -> ResultSet:
        """Execute ``query`` with ``params`` (see :meth:`execute`)."""
        return self.execute(query, params)

    def execute(
        self,
        query: str,
        params: dict[str, Any] | None = None,
        *,
        deadline: Any = None,
        row_budget: Optional[int] = None,
        profile: bool = False,
    ) -> ResultSet:
        """Execute ``query`` with the full runtime surface.

        ``deadline`` is an expiring-clock object with an ``expired``
        property (the serving layer's ``Deadline``), checked cooperatively
        as operators charge the rows they emit; an overrun raises
        :class:`~repro.cypher.errors.CypherDeadlineExceeded`.
        ``row_budget`` bounds total intermediate rows across all operators
        (None, the default, leaves them unbounded), raising
        :class:`~repro.cypher.errors.ResourceExhausted` beyond it.  With
        ``profile=True`` the result carries the executed operator tree
        (rows + wall-time per operator) on ``result.profile``.

        A read-only query run without ``params`` or ``profile`` is served
        from its last result when the graph's ``stats_version`` is the one
        that result was computed at and ``row_budget`` covers the rows that
        run charged.  The records (and the values in them) are then shared
        with earlier results, so callers must not mutate them.
        """
        # Fault-injection site: latency spikes sleep here; injected engine
        # errors raise InjectedCypherError (a CypherRuntimeError), so they
        # travel the organic failure path through the symbolic retriever,
        # the error taxonomy and the circuit breaker.
        fault_point("graph.execute")
        entry = self._entry(query)
        # Read before executing: versions only grow, so a memo from a run
        # that overlapped a write is tagged too old to ever match again.
        version = self.store.stats_version
        reusable = entry.read_only and not params and not profile
        if reusable:
            memo = entry.memo
            if memo is not None and memo[0] == version and (
                row_budget is None or row_budget >= memo[2]
            ):
                RuntimeState(deadline=deadline).check_deadline()
                with self._memo_lock:
                    self._result_hits += 1
                return ResultSet(memo[1].keys, memo[1].records)
        result, root = self._execute(
            entry.tree,
            params or {},
            deadline=deadline,
            row_budget=row_budget,
            profiled=profile,
        )
        if profile:
            result.profile = profile_tree(root)
        elif reusable:
            self._memoise(entry, version, result, root.state.rows)
        return result

    def _entry(self, query: str) -> _QueryEntry:
        """The cache entry for ``query``, parsing it on a miss."""
        entry = self._entries.get(query)
        if entry is None:
            entry = _QueryEntry(parse(query))
            self._entries[query] = entry
        return entry

    def _memoise(
        self, entry: _QueryEntry, version: int, result: ResultSet, rows_charged: int
    ) -> None:
        """Keep ``result`` as ``entry``'s memo if it fits under the row cap."""
        rows = len(result.records)
        cap = self.store.node_count + self.store.relationship_count
        if rows > cap:
            return
        # A private copy: the caller may mutate its own records list.
        memo = (version, ResultSet(result.keys, result.records), rows_charged)
        with self._memo_lock:
            self._memoised_rows -= self._memos.pop(entry, 0)
            while self._memos and self._memoised_rows + rows > cap:
                oldest, held = self._memos.popitem(last=False)
                oldest.memo = None
                self._memoised_rows -= held
            entry.memo = memo
            self._memos[entry] = rows
            self._memoised_rows += rows

    def _drop_memo(self, entry: _QueryEntry) -> None:
        """Release an evicted entry's memo and its rows from the cap."""
        with self._memo_lock:
            self._memoised_rows -= self._memos.pop(entry, 0)
            entry.memo = None

    def _execute(
        self,
        tree: ast.Query,
        params: dict[str, Any],
        *,
        deadline: Any = None,
        row_budget: Optional[int] = None,
        profiled: bool = False,
    ) -> tuple[ResultSet, ops.PhysicalOperator]:
        """Plan ``tree``, lower it into a physical operator tree and drain it.

        Returns the result plus the executed tree root (its counters feed
        ``PROFILE`` rendering and the ``cypher_profile`` diagnostics).
        """
        plans = plan_query(tree, self.store.statistics()) if self.planner else None
        state = RuntimeState(deadline=deadline, budget=row_budget, profiled=profiled)
        context = _ExecutionContext(self.store, params, self.max_var_length, state, plans)
        state.check_deadline()
        root = self._lower_query(tree, context, state)
        produced = iter(root)
        try:
            rows = list(produced)
        finally:
            produced.close()
        keys = root.keys or []
        # Adopt-without-copy: each values list is single-owner and the keys
        # list is shared read-only across every record of the result.
        records = [Record.of(keys, values) for values in rows]
        return ResultSet(keys, records, **context.counters()), root

    def profile(self, query: str, **params: Any) -> tuple[ResultSet, str]:
        """Execute ``query`` and report the physical operator tree.

        Returns the normal result plus a text rendering of the executed
        tree: one line per operator with the rows it actually produced and
        its inclusive wall-clock time, so hot operators are visible at a
        glance.
        """
        result, root = self._execute(self._entry(query).tree, params, profiled=True)
        result.profile = profile_tree(root)
        return result, render_profile(root)

    def explain(self, query: str) -> str:
        """Describe how ``query`` would execute (clause pipeline + plans).

        With the planner on, each MATCH pattern part shows the chosen
        anchor, its access path (index lookup, label scan, ...) and the
        expansion direction, plus any WHERE predicates pushed down to bind
        time.
        """
        tree = parse(query)
        plans = plan_query(tree, self.store.statistics()) if self.planner else None
        queries = tree.queries if isinstance(tree, ast.UnionQuery) else (tree,)
        lines = []
        for qindex, single in enumerate(queries):
            if len(queries) > 1:
                lines.append(f"UNION branch {qindex + 1}:")
            for clause in single.clauses:
                lines.extend(self._explain_clause(clause, plans))
        return "\n".join(lines)

    def _explain_clause(
        self, clause: ast.Clause, plans: Optional[dict[int, MatchPlan]] = None
    ) -> list[str]:
        name = type(clause).__name__.replace("Clause", "")
        if isinstance(clause, ast.MatchClause):
            prefix = "OptionalMatch" if clause.optional else "Match"
            plan = plans.get(id(clause)) if plans is not None else None
            lines = []
            for index, part in enumerate(clause.pattern.parts):
                part_plan = plan.parts[index] if plan is not None else None
                lines.append(f"{prefix} {self._explain_part(part, part_plan)}")
            if plan is not None and plan.filters:
                for variable in sorted(plan.filters):
                    for filt in plan.filters[variable]:
                        if filt.kind == "eq":
                            op = "="
                        elif filt.kind == "in":
                            op = "IN"
                        else:
                            op = filt.ops[0]
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

    def _explain_part(self, part: ast.PatternPart, plan: Optional[PartPlan] = None) -> str:
        nodes = part.nodes
        if part.shortest is not None:
            kind = "shortestPath" if part.shortest == "single" else "allShortestPaths"
            return f"{kind} BFS between {self._node_text(nodes[0])} and {self._node_text(nodes[-1])}"
        first, last = nodes[0], nodes[-1]
        if plan is not None:
            anchor_node = last if plan.reverse else first
            direction = "right-to-left" if plan.reverse else "left-to-right"
            return (
                f"pattern({len(nodes)} nodes, {part.hop_count} hops) "
                f"anchor={self._node_text(anchor_node)} via {plan.anchor.describe()}, "
                f"expand {direction}"
            )
        empty_row: Row = {}
        reverse = len(part.elements) > 1 and (
            _node_selectivity(last, empty_row) > _node_selectivity(first, empty_row)
        )
        anchor = last if reverse else first
        direction = "right-to-left" if reverse else "left-to-right"
        access = "AllNodesScan"
        if anchor.labels and anchor.properties:
            key, _ = _pick_lookup_property(self.store, anchor)
            label = _pick_lookup_label(self.store, anchor, key)
            access = f"PropertyLookup(:{label}.{key})"
        elif anchor.labels:
            access = f"LabelScan(:{anchor.labels[0]})"
        hops = part.hop_count
        return (
            f"pattern({len(nodes)} nodes, {hops} hops) anchor={self._node_text(anchor)} "
            f"via {access}, expand {direction}"
        )

    @staticmethod
    def _node_text(node: ast.NodePattern) -> str:
        label = f":{node.labels[0]}" if node.labels else ""
        variable = node.variable or ""
        return f"({variable}{label})"

    # ------------------------------------------------------------------

    # -- Lowering: AST + plans -> physical operator tree -----------------

    def _lower_query(
        self, tree: ast.Query, context: "_ExecutionContext", state: RuntimeState
    ) -> ops.PhysicalOperator:
        if isinstance(tree, ast.UnionQuery):
            branches = [
                self._lower_single(query, context, state) for query in tree.queries
            ]
            return ops.UnionAppend(state, branches, tree.union_all)
        return self._lower_single(tree, context, state)

    def _lower_single(
        self, tree: ast.SingleQuery, context: "_ExecutionContext", state: RuntimeState
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
                op = self._lower_match(op, clause, context, state)
                scope.update(clause.pattern.variables)
            elif isinstance(clause, ast.UnwindClause):
                op = ops.Unwind(state, op, context, clause)
                scope.add(clause.variable)
            elif isinstance(clause, ast.WithClause):
                op, projection = self._lower_projection(
                    op, clause, context, state, scope, writes
                )
                op = ops.AsRows(state, op, projection)
                if clause.where is not None:
                    op = ops.Filter(state, op, context, clause.where, pairs_in=False)
                scope = set(projection.keys)
            elif isinstance(clause, ast.ReturnClause):
                if index != len(clauses) - 1:
                    raise CypherSyntaxError("RETURN must be the final clause")
                op, projection = self._lower_projection(
                    op, clause, context, state, scope, writes
                )
                return ops.ProduceResults(state, op, projection)
            elif isinstance(clause, ast.CreateClause):
                op = ops.Create(state, op, context, clause)
                scope.update(clause.pattern.variables)
                writes = True
            elif isinstance(clause, ast.MergeClause):
                op = ops.Merge(state, op, context, clause)
                scope.update(clause.part.variables)
                writes = True
            elif isinstance(clause, ast.SetClause):
                op = ops.SetProperties(state, op, context, clause)
                writes = True
            elif isinstance(clause, ast.DeleteClause):
                op = ops.Delete(state, op, context, clause)
                writes = True
            elif isinstance(clause, ast.RemoveClause):
                op = ops.Remove(state, op, context, clause)
                writes = True
            else:  # pragma: no cover - parser cannot produce others
                raise CypherRuntimeError(f"unsupported clause {clause!r}")
        return ops.ProduceResults(state, op, None)

    def _lower_match(
        self,
        child: ops.PhysicalOperator,
        clause: ast.MatchClause,
        context: "_ExecutionContext",
        state: RuntimeState,
    ) -> ops.PhysicalOperator:
        plans = context.match_plans
        plan = plans.get(id(clause)) if plans is not None else None
        if not clause.optional:
            op = self._lower_parts(child, clause.pattern, plan, context, state)
            if clause.where is not None:
                op = ops.Filter(state, op, context, clause.where, pairs_in=False)
            return op
        # OPTIONAL MATCH: the pattern (and its WHERE) runs as a sub-pipeline
        # re-run once per upstream row, padding with nulls on no match.
        source = ops.RowSource(state)
        sub = self._lower_parts(source, clause.pattern, plan, context, state)
        if clause.where is not None:
            sub = ops.Filter(state, sub, context, clause.where, pairs_in=False)
        return ops.OptionalMatch(
            state, child, sub, source, clause.pattern.variables
        )

    def _lower_parts(
        self,
        child: ops.PhysicalOperator,
        pattern: ast.Pattern,
        plan: Optional[MatchPlan],
        context: "_ExecutionContext",
        state: RuntimeState,
    ) -> ops.PhysicalOperator:
        """Chain the pattern's parts: each consumes the previous part's
        ``(row, used)`` pairs (cartesian product with relationship
        uniqueness threaded through); the last part emits plain rows."""
        parts = pattern.parts
        multi = len(parts) > 1
        op = child
        for index, part in enumerate(parts):
            from_rows = index == 0
            emit_row = index == len(parts) - 1
            part_plan = plan.parts[index] if plan is not None else None
            filters = plan.filters if plan is not None else None
            if part.shortest is not None:
                kind = "shortestPath" if part.shortest == "single" else "allShortestPaths"
                op = ops.ShortestPath(
                    state, op, context, part, filters,
                    from_rows=from_rows, emit_row=emit_row, detail=kind,
                )
            elif part_plan is None:
                # Unplanned: traversal direction is a per-row decision, so
                # defer to the heuristic row-at-a-time matcher.
                op = ops.PartMatch(
                    state, op, context, part,
                    from_rows=from_rows, update_used=multi, emit_row=emit_row,
                    detail=f"{len(part.nodes)} nodes, {part.hop_count} hops",
                )
            else:
                op = self._lower_planned_part(
                    op, part, part_plan, filters, context, state,
                    from_rows=from_rows, emit_row=emit_row, update_used=multi,
                )
        return op

    def _lower_planned_part(
        self,
        child: ops.PhysicalOperator,
        part: ast.PatternPart,
        part_plan: PartPlan,
        filters: Optional[Filters],
        context: "_ExecutionContext",
        state: RuntimeState,
        *,
        from_rows: bool,
        emit_row: bool,
        update_used: bool,
    ) -> ops.PhysicalOperator:
        """One planned pattern part as an ``AnchorScan → Expand* → Match`` chain."""
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
            track_path, from_rows, name, detail,
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
            )
        return ops.PartEmit(
            state, op, part, part_plan.reverse, emit_row,
            detail=f"{len(part.nodes)} nodes, {part.hop_count} hops",
        )

    def _lower_projection(
        self,
        child: ops.PhysicalOperator,
        clause: ast.ProjectionClause,
        context: "_ExecutionContext",
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
        if start:
            op = ops.Skip(state, op, start)
        if end is not None:
            op = ops.Limit(state, op, end - start, writes)
        return op, projection


# ---------------------------------------------------------------------------
# Execution context: clause operators
# ---------------------------------------------------------------------------

class _ExecutionContext:
    """Holds the store, parameters, runtime state, plans and write counters for one run."""

    def __init__(
        self,
        store: GraphStore,
        params: dict[str, Any],
        max_var_length: int,
        state: RuntimeState,
        match_plans: Optional[dict[int, MatchPlan]] = None,
    ):
        self.store = store
        self.params = params
        self.max_var_length = max_var_length
        # the run's row budget and deadline, charged by the pattern matcher
        self.state = state
        self.match_plans = match_plans
        self.evaluator = _Evaluator(self)
        # id(expr) -> value for pushed-filter expressions; those are
        # Literal/Parameter only, so their value is fixed per execution
        self._filter_values: dict[int, Any] = {}
        self.nodes_created = 0
        self.relationships_created = 0
        self.properties_set = 0
        self.nodes_deleted = 0
        self.relationships_deleted = 0

    def _filter_value(self, expr: ast.Expr) -> Any:
        """Memoised evaluation of a pushed filter's row-independent value."""
        cache = self._filter_values
        key = id(expr)
        if key in cache:
            return cache[key]
        value = self.evaluator.evaluate(expr, {})
        cache[key] = value
        return value

    def counters(self) -> dict[str, int]:
        return {
            "nodes_created": self.nodes_created,
            "relationships_created": self.relationships_created,
            "properties_set": self.properties_set,
            "nodes_deleted": self.nodes_deleted,
            "relationships_deleted": self.relationships_deleted,
        }

    # -- MATCH ----------------------------------------------------------
    # (Clause-level MATCH runs as physical operators — see the lowering in
    # CypherEngine; the part/chain matchers below are shared by those
    # operators, pattern-predicate evaluation and MERGE.)

    def match_pattern(
        self, part: ast.PatternPart, row: Row, limit: Optional[int] = None
    ) -> list[Row]:
        """Rows binding ``part`` from ``row`` (pattern predicates).

        ``limit`` stops the search once that many matches are found, so
        ``EXISTS`` stops at the first one.
        """
        return [
            matched
            for matched, _ in self._match_part(
                part, row, frozenset(), update_used=False, limit=limit
            )
        ]

    def _match_part(
        self,
        part: ast.PatternPart,
        row: Row,
        used: frozenset[int],
        update_used: bool = True,
        limit: Optional[int] = None,
    ) -> Iterable[tuple[Row, frozenset[int]]]:
        """Row-at-a-time matcher for one unplanned pattern part.

        Every candidate and expansion step is charged to the run's row
        budget and deadline; ``limit`` ends the search after that many
        matches.
        """
        if part.shortest is not None:
            return self._match_shortest(part, row, used)
        elements = list(part.elements)
        reversed_part = len(elements) > 1 and self._should_reverse(elements, row)
        if reversed_part:
            elements = _reverse_elements(elements)

        first = elements[0]
        assert isinstance(first, ast.NodePattern)
        track_path = part.path_variable is not None
        maintain_used = update_used or needs_used_tracking(part)
        chained: list[Any] = []
        charge = self.state.charge
        for start in self._node_candidates(first, row):
            charge()
            start_row = self._bind_node(first, start, row)
            if start_row is None:
                continue
            self._match_chain(
                elements,
                1,
                start_row,
                used,
                start,
                [start] if track_path else None,
                [] if track_path else None,
                maintain_used,
                chained,
                limit,
            )
            if limit is not None and len(chained) >= limit:
                break
        if not track_path:
            return chained
        results: list[tuple[Row, frozenset[int]]] = []
        for final_row, used_after, nodes, rels in chained:
            path_nodes = list(reversed(nodes)) if reversed_part else nodes
            path_rels = list(reversed(rels)) if reversed_part else rels
            final_row = dict(final_row)
            final_row[part.path_variable] = Path(path_nodes, path_rels)
            results.append((final_row, used_after))
        return results

    def _match_shortest(
        self,
        part: ast.PatternPart,
        row: Row,
        used: frozenset[int],
        filters: Optional[Filters] = None,
    ) -> Iterator[tuple[Row, frozenset[int]]]:
        """Match ``shortestPath((a)-[...]-(b))`` via breadth-first search.

        Both endpoint patterns are resolved first (bound variables or
        indexed/label scans), then a BFS bounded by the relationship
        pattern's hop range finds one (``"single"``) or all (``"all"``)
        minimum-length paths.
        """
        start_pattern, rel_pattern, end_pattern = part.elements
        assert isinstance(start_pattern, ast.NodePattern)
        assert isinstance(rel_pattern, ast.RelPattern)
        assert isinstance(end_pattern, ast.NodePattern)
        if not rel_pattern.var_length and rel_pattern.min_hops is None:
            # A plain relationship inside shortestPath() means one hop.
            rel_pattern = ast.RelPattern(
                variable=rel_pattern.variable, types=rel_pattern.types,
                direction=rel_pattern.direction, properties=rel_pattern.properties,
                min_hops=1, max_hops=1, var_length=True,
            )
        for start in self._node_candidates(start_pattern, row):
            start_row = self._bind_node(start_pattern, start, row, filters)
            if start_row is None:
                continue
            for end in self._node_candidates(end_pattern, start_row):
                end_row = self._bind_node(end_pattern, end, start_row, filters)
                if end_row is None:
                    continue
                for nodes, rels in self._bfs_shortest(
                    start, end, rel_pattern, end_row, all_paths=(part.shortest == "all")
                ):
                    final = dict(end_row)
                    if rel_pattern.variable is not None:
                        final[rel_pattern.variable] = list(rels)
                    if part.path_variable is not None:
                        final[part.path_variable] = Path(nodes, rels)
                    yield final, used | {rel.rel_id for rel in rels}

    def _bfs_shortest(
        self,
        start: Node,
        end: Node,
        rel_pattern: ast.RelPattern,
        row: Row,
        all_paths: bool,
    ) -> list[tuple[list[Node], list[Relationship]]]:
        min_hops = rel_pattern.min_hops if rel_pattern.min_hops is not None else 1
        max_hops = rel_pattern.max_hops if rel_pattern.max_hops is not None else self.max_var_length
        if min_hops == 0 and start.node_id == end.node_id:
            return [([start], [])]
        if not all_paths:
            return self._bfs_first_path(start, end, rel_pattern, row, min_hops, max_hops)
        # Level-synchronous BFS keeping every parent edge at the found depth
        # so all shortest paths can be reconstructed.
        frontier: dict[int, list[tuple[list[Node], list[Relationship]]]] = {
            start.node_id: [([start], [])]
        }
        visited_depth = {start.node_id: 0}
        found: list[tuple[list[Node], list[Relationship]]] = []
        depth = 0
        while frontier and depth < max_hops and not found:
            depth += 1
            next_frontier: dict[int, list[tuple[list[Node], list[Relationship]]]] = {}
            for node_id, partials in frontier.items():
                for rel, other_id in self._bfs_steps(node_id, rel_pattern, row):
                    seen_at = visited_depth.get(other_id)
                    if seen_at is not None and seen_at < depth:
                        continue  # strictly shorter route exists
                    visited_depth.setdefault(other_id, depth)
                    other = self.store.node(other_id)
                    extensions = [
                        (nodes + [other], rels + [rel])
                        for nodes, rels in partials
                        if rel.rel_id not in {r.rel_id for r in rels}
                    ]
                    if not extensions:
                        continue
                    if other_id == end.node_id and depth >= min_hops:
                        found.extend(extensions)
                    else:
                        next_frontier.setdefault(other_id, []).extend(extensions)
            frontier = next_frontier
        return found

    def _bfs_first_path(
        self,
        start: Node,
        end: Node,
        rel_pattern: ast.RelPattern,
        row: Row,
        min_hops: int,
        max_hops: int,
    ) -> list[tuple[list[Node], list[Relationship]]]:
        """The first minimum-length path the all-paths BFS would find.

        Keeps one parent per node, the one that discovered it first, so
        the work is linear in the edges scanned however many equal-length
        paths exist.  The all-paths search extends partial paths in that
        same discovery order, so its first path is this one.
        """
        end_id = end.node_id
        parents: dict[int, Optional[tuple[int, Relationship]]] = {start.node_id: None}
        frontier = [start.node_id]
        depth = 0
        while frontier and depth < max_hops:
            depth += 1
            next_frontier = []
            for node_id in frontier:
                for rel, other_id in self._bfs_steps(node_id, rel_pattern, row):
                    if other_id in parents:
                        continue  # reached no later than this depth already
                    if other_id == end_id and depth >= min_hops:
                        nodes, rels = [end], [rel]
                        current = node_id
                        step = parents[current]
                        while step is not None:
                            nodes.append(self.store.node(current))
                            current, parent_rel = step
                            rels.append(parent_rel)
                            step = parents[current]
                        nodes.append(start)
                        nodes.reverse()
                        rels.reverse()
                        return [(nodes, rels)]
                    parents[other_id] = (node_id, rel)
                    next_frontier.append(other_id)
            frontier = next_frontier
        return []

    def _bfs_steps(
        self, node_id: int, rel_pattern: ast.RelPattern, row: Row
    ) -> Iterator[tuple[Relationship, int]]:
        """``(relationship, other end)`` for each edge a BFS may take from ``node_id``."""
        direction = rel_pattern.direction
        for rel in self.store.adjacent_relationships(
            node_id, direction, rel_pattern.types or None
        ):
            if not self._rel_properties_match(rel_pattern, rel, row):
                continue
            yield rel, rel.other_end(node_id)

    def _match_chain(
        self,
        elements: list[Union[ast.NodePattern, ast.RelPattern]],
        index: int,
        row: Row,
        used: frozenset[int],
        current: Node,
        nodes: Optional[list[Node]],
        rels: Optional[list[Relationship]],
        maintain_used: bool,
        out: list[Any],
        limit: Optional[int] = None,
    ) -> None:
        """Recursively match the rel/node chain, appending results to ``out``.

        Appends ``(row, used)`` tuples, or ``(row, used, nodes, rels)`` when
        path tracking is on (``nodes``/``rels`` non-None).  Building a list
        instead of yielding avoids a generator resumption per consumer level
        on the hot path.  Returns early once ``out`` holds ``limit`` entries.
        """
        if index >= len(elements):
            if nodes is None:
                out.append((row, used))
            else:
                out.append((row, used, nodes, rels))
            return
        rel_pattern = elements[index]
        node_pattern = elements[index + 1]
        assert isinstance(rel_pattern, ast.RelPattern)
        assert isinstance(node_pattern, ast.NodePattern)

        var_length = rel_pattern.var_length
        if var_length:
            steps: Iterable[tuple[Any, Node]] = self._expand_var_length(
                rel_pattern, current, row, used
            )
        else:
            steps = self._expand_single(rel_pattern, current, row, used)

        variable = rel_pattern.variable
        charge = self.state.charge
        # A step is one relationship, or a list of them for a var-length hop.
        for step, end_node in steps:
            charge()
            if variable is None:
                rel_row = row
            else:
                bound_value: Any = list(step) if var_length else step
                if variable in row:
                    if not _same_rel_binding(row[variable], bound_value):
                        continue
                    rel_row = row
                else:
                    rel_row = dict(row)
                    rel_row[variable] = bound_value
            end_row = self._bind_node(node_pattern, end_node, rel_row)
            if end_row is None:
                continue
            if not maintain_used:
                new_used = used
            elif var_length:
                new_used = used | {rel.rel_id for rel in step}
            else:
                new_used = used | {step.rel_id}
            if nodes is None:
                next_nodes = next_rels = None
            elif var_length:
                next_nodes, next_rels = self._var_length_path(nodes, rels, current, step)
            else:
                next_nodes = nodes + [end_node]
                next_rels = rels + [step]
            self._match_chain(
                elements,
                index + 2,
                end_row,
                new_used,
                end_node,
                next_nodes,
                next_rels,
                maintain_used,
                out,
                limit,
            )
            if limit is not None and len(out) >= limit:
                return

    def _expand_single(
        self,
        rel_pattern: ast.RelPattern,
        current: Node,
        row: Row,
        used: frozenset[int],
    ) -> Iterator[tuple[Relationship, Node]]:
        """``(rel, end_node)`` for every single hop from ``current``."""
        direction = rel_pattern.direction
        types = rel_pattern.types or None
        node_id = current.node_id
        nodes = self.store._nodes
        check_props = bool(rel_pattern.properties)
        # No direction re-check needed: the adjacency index is maintained per
        # direction, so an "out" query only ever returns rels starting here
        # (self-loops included on both sides).
        for rel in self.store.adjacent_relationships(node_id, direction, types):
            if rel.rel_id in used:
                continue
            if check_props and not self._rel_properties_match(rel_pattern, rel, row):
                continue
            other = rel.end_id if rel.start_id == node_id else rel.start_id
            yield rel, nodes[other]

    def _var_length_path(
        self,
        nodes: list[Node],
        rels: list[Relationship],
        current: Node,
        step_rels: list[Relationship],
    ) -> tuple[list[Node], list[Relationship]]:
        """Path lists extended by a var-length step, intermediate nodes included."""
        step_nodes = []
        cursor = current
        for rel in step_rels:
            cursor = self.store.node(rel.other_end(cursor.node_id))
            step_nodes.append(cursor)
        return nodes + step_nodes, rels + list(step_rels)

    def _expand_var_length(
        self,
        rel_pattern: ast.RelPattern,
        current: Node,
        row: Row,
        used: frozenset[int],
    ) -> Iterator[tuple[list[Relationship], Node]]:
        min_hops = rel_pattern.min_hops if rel_pattern.min_hops is not None else 1
        max_hops = rel_pattern.max_hops if rel_pattern.max_hops is not None else self.max_var_length
        if max_hops > self.max_var_length:
            max_hops = self.max_var_length
        if min_hops == 0:
            yield [], current

        def walk(
            node: Node, taken: list[Relationship], taken_ids: frozenset[int]
        ) -> Iterator[tuple[list[Relationship], Node]]:
            if len(taken) >= max_hops:
                return
            for rel in self.store.adjacent_relationships(
                node.node_id, rel_pattern.direction, rel_pattern.types or None
            ):
                if rel.rel_id in used or rel.rel_id in taken_ids:
                    continue
                if not self._rel_properties_match(rel_pattern, rel, row):
                    continue
                next_node = self.store.node(rel.other_end(node.node_id))
                extended = taken + [rel]
                if len(extended) >= min_hops:
                    yield extended, next_node
                yield from walk(next_node, extended, taken_ids | {rel.rel_id})

        yield from walk(current, [], frozenset())

    def _rel_properties_match(
        self, rel_pattern: ast.RelPattern, rel: Relationship, row: Row
    ) -> bool:
        for key, expr in rel_pattern.properties:
            wanted = self.evaluator.evaluate(expr, row)
            if cypher_equals(rel.properties.get(key), wanted) is not True:
                return False
        return True

    def _node_candidates(
        self,
        node_pattern: ast.NodePattern,
        row: Row,
        anchor: Optional["AnchorPlan"] = None,
    ) -> Iterator[Node]:
        """Candidate nodes for the anchor position of a pattern part.

        With a planned anchor, follows its access path; every candidate is
        still fully verified by :meth:`_bind_node`, so a stale or
        suboptimal plan can never change results.
        """
        if node_pattern.variable is not None and node_pattern.variable in row:
            bound = row[node_pattern.variable]
            if bound is None:
                return
            if not isinstance(bound, Node):
                raise CypherTypeError(
                    f"variable {node_pattern.variable!r} is not a node: {bound!r}"
                )
            yield bound
            return
        if anchor is not None and anchor.kind in ("property", "property-in"):
            seen: set[int] = set()
            for expr in anchor.values:
                value = self.evaluator.evaluate(expr, row)
                for node in self.store.nodes_by_property(anchor.label, anchor.key, value):
                    if node.node_id not in seen:
                        seen.add(node.node_id)
                        yield node
            return
        if anchor is not None and anchor.kind == "label":
            yield from self.store.nodes_by_label(anchor.label)
            return
        if anchor is not None and anchor.kind == "all":
            yield from self.store.all_nodes()
            return
        # Unplanned path: property-equality lookup when available, preferring
        # a (label, key) pair that actually has a property index.
        if node_pattern.labels and node_pattern.properties:
            key, expr = _pick_lookup_property(self.store, node_pattern)
            value = self.evaluator.evaluate(expr, row)
            label = _pick_lookup_label(self.store, node_pattern, key)
            yield from self.store.nodes_by_property(label, key, value)
            return
        if node_pattern.labels:
            yield from self.store.nodes_by_label(node_pattern.labels[0])
            return
        yield from self.store.all_nodes()

    def _bind_node(
        self,
        node_pattern: ast.NodePattern,
        node: Node,
        row: Row,
        filters: Optional[Filters] = None,
    ) -> Optional[Row]:
        """Check constraints of ``node_pattern`` against ``node``; bind if ok."""
        for label in node_pattern.labels:
            if label not in node.labels:
                return None
        for key, expr in node_pattern.properties:
            wanted = self.evaluator.evaluate(expr, row)
            if cypher_equals(node.properties.get(key), wanted) is not True:
                return None
        if (
            filters
            and node_pattern.variable is not None
            and not self._passes_filters(node.properties, filters.get(node_pattern.variable))
        ):
            return None
        if node_pattern.variable is None:
            return row
        if node_pattern.variable in row:
            bound = row[node_pattern.variable]
            if isinstance(bound, Node) and bound.node_id == node.node_id:
                return row
            return None
        new_row = dict(row)
        new_row[node_pattern.variable] = node
        return new_row

    def _passes_filters(
        self,
        properties: dict[str, Any],
        filters: Optional[tuple[PushedFilter, ...]],
    ) -> bool:
        """Apply pushed WHERE equality/IN/range filters to an entity's properties.

        Mirrors WHERE ternary logic: a row survives only when the pushed
        conjunct would evaluate to true.  ``IN $param`` with a non-list
        parameter is left for the residual WHERE to raise on.
        """
        if not filters:
            return True
        for filt in filters:
            actual = properties.get(filt.key)
            if filt.kind == "eq":
                wanted = self._filter_value(filt.values[0])
                if cypher_equals(actual, wanted) is not True:
                    return False
                continue
            if filt.kind == "range":
                for op, expr in zip(filt.ops, filt.values):
                    if compare_once(op, actual, self._filter_value(expr)) is not True:
                        return False
                continue
            candidates = self._filter_candidates(filt)
            if candidates is None:
                continue
            if not any(cypher_equals(actual, value) is True for value in candidates):
                return False
        return True

    def _filter_candidates(self, filt: PushedFilter) -> Optional[list[Any]]:
        """Resolve an IN filter's candidate values (None = cannot filter)."""
        if len(filt.values) == 1 and isinstance(filt.values[0], ast.Parameter):
            value = self._filter_value(filt.values[0])
            return value if isinstance(value, list) else None
        return [self._filter_value(expr) for expr in filt.values]

    def _should_reverse(
        self, elements: list[Union[ast.NodePattern, ast.RelPattern]], row: Row
    ) -> bool:
        first = elements[0]
        last = elements[-1]
        assert isinstance(first, ast.NodePattern) and isinstance(last, ast.NodePattern)
        return _node_selectivity(last, row) > _node_selectivity(first, row)

    # -- WITH / RETURN ----------------------------------------------------
    # (Projection, DISTINCT, ORDER BY and SKIP/LIMIT run as physical
    # operators — repro.cypher.operators — fed by the lowering above.)

    def _bounded_int(self, expr: ast.Expr, what: str) -> int:
        value = self.evaluator.evaluate(expr, {})
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise CypherRuntimeError(f"{what} requires a non-negative integer, got {value!r}")
        return value

    # -- Writes -----------------------------------------------------------

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
            matches = [
                matched for matched, _ in self._match_part(clause.part, row, frozenset())
            ]
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


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

class _Evaluator:
    """Evaluates expression ASTs against a row environment."""

    # expression class -> unbound handler, shared across instances so the
    # per-call getattr string formatting happens once per AST node type
    _dispatch: dict[type, Any] = {}

    def __init__(self, context: _ExecutionContext) -> None:
        self.context = context

    def evaluate(self, expr: ast.Expr, row: Row) -> Any:
        cls = expr.__class__
        method = _Evaluator._dispatch.get(cls)
        if method is None:
            method = getattr(_Evaluator, f"_eval_{cls.__name__}", None)
            if method is None:
                raise CypherRuntimeError(f"cannot evaluate {cls.__name__}")
            _Evaluator._dispatch[cls] = method
        return method(self, expr, row)

    # -- atoms ----------------------------------------------------------

    def _eval_Literal(self, expr: ast.Literal, row: Row) -> Any:
        return expr.value

    def _eval_Parameter(self, expr: ast.Parameter, row: Row) -> Any:
        if expr.name not in self.context.params:
            raise CypherRuntimeError(f"missing parameter: ${expr.name}")
        return self.context.params[expr.name]

    def _eval_Variable(self, expr: ast.Variable, row: Row) -> Any:
        if expr.name not in row:
            raise CypherRuntimeError(f"unknown variable: {expr.name}")
        return row[expr.name]

    def _eval_PropertyAccess(self, expr: ast.PropertyAccess, row: Row) -> Any:
        subject_expr = expr.subject
        if subject_expr.__class__ is ast.Variable:
            subject = self._eval_Variable(subject_expr, row)
        else:
            subject = self.evaluate(subject_expr, row)
        if subject is None:
            return None
        if isinstance(subject, (Node, Relationship)):
            return subject.properties.get(expr.key)
        if isinstance(subject, dict):
            return subject.get(expr.key)
        raise CypherTypeError(
            f"cannot access property {expr.key!r} on {type(subject).__name__}"
        )

    def _eval_Subscript(self, expr: ast.Subscript, row: Row) -> Any:
        subject = self.evaluate(expr.subject, row)
        index = self.evaluate(expr.index, row)
        if subject is None or index is None:
            return None
        if isinstance(subject, list):
            if isinstance(index, bool) or not isinstance(index, int):
                raise CypherTypeError(f"list index must be an integer, got {index!r}")
            if -len(subject) <= index < len(subject):
                return subject[index]
            return None
        if isinstance(subject, (dict,)):
            return subject.get(index)
        if isinstance(subject, (Node, Relationship)):
            return subject.properties.get(index)
        raise CypherTypeError(f"cannot subscript {type(subject).__name__}")

    def _eval_Slice(self, expr: ast.Slice, row: Row) -> Any:
        subject = self.evaluate(expr.subject, row)
        if subject is None:
            return None
        if not isinstance(subject, list):
            raise CypherTypeError("slicing requires a list")
        start = self.evaluate(expr.start, row) if expr.start is not None else None
        end = self.evaluate(expr.end, row) if expr.end is not None else None
        for bound in (start, end):
            if bound is not None and (isinstance(bound, bool) or not isinstance(bound, int)):
                raise CypherTypeError(f"list slice bounds must be integers, got {bound!r}")
        return subject[start:end]

    def _eval_ListLiteral(self, expr: ast.ListLiteral, row: Row) -> list[Any]:
        return [self.evaluate(item, row) for item in expr.items]

    def _eval_MapLiteral(self, expr: ast.MapLiteral, row: Row) -> dict[str, Any]:
        return {key: self.evaluate(value, row) for key, value in expr.items}

    # -- operators --------------------------------------------------------

    def _eval_UnaryOp(self, expr: ast.UnaryOp, row: Row) -> Any:
        value = self.evaluate(expr.operand, row)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CypherTypeError(f"unary {expr.op} expects a number, got {value!r}")
        return -value if expr.op == "-" else +value

    def _eval_BinaryOp(self, expr: ast.BinaryOp, row: Row) -> Any:
        left = self.evaluate(expr.left, row)
        right = self.evaluate(expr.right, row)
        return binary_operation(expr.op, left, right)

    def _eval_Comparison(self, expr: ast.Comparison, row: Row) -> Optional[bool]:
        values = [self.evaluate(operand, row) for operand in expr.operands]
        result: Optional[bool] = True
        for op, left, right in zip(expr.ops, values, values[1:]):
            outcome = compare_once(op, left, right)
            if outcome is False:
                return False
            if outcome is None:
                result = None
        return result

    def _eval_BooleanOp(self, expr: ast.BooleanOp, row: Row) -> Optional[bool]:
        saw_null = False
        if expr.op == "AND":
            for operand in expr.operands:
                value = is_truthy(self.evaluate(operand, row))
                if value is False:
                    return False
                if value is None:
                    saw_null = True
            return None if saw_null else True
        if expr.op == "OR":
            for operand in expr.operands:
                value = is_truthy(self.evaluate(operand, row))
                if value is True:
                    return True
                if value is None:
                    saw_null = True
            return None if saw_null else False
        # XOR
        result: Optional[bool] = False
        for operand in expr.operands:
            value = is_truthy(self.evaluate(operand, row))
            if value is None:
                return None
            result = bool(result) ^ value
        return result

    def _eval_NotOp(self, expr: ast.NotOp, row: Row) -> Optional[bool]:
        value = is_truthy(self.evaluate(expr.operand, row))
        return None if value is None else not value

    def _eval_IsNull(self, expr: ast.IsNull, row: Row) -> bool:
        value = self.evaluate(expr.operand, row)
        return (value is not None) if expr.negated else (value is None)

    def _eval_StringPredicate(self, expr: ast.StringPredicate, row: Row) -> Optional[bool]:
        left = self.evaluate(expr.left, row)
        right = self.evaluate(expr.right, row)
        if left is None or right is None:
            return None
        if not isinstance(left, str) or not isinstance(right, str):
            return None
        if expr.op == "STARTS":
            return left.startswith(right)
        if expr.op == "ENDS":
            return left.endswith(right)
        return right in left

    def _eval_InList(self, expr: ast.InList, row: Row) -> Optional[bool]:
        value = self.evaluate(expr.value, row)
        container = self.evaluate(expr.container, row)
        if container is None:
            return None
        if not isinstance(container, list):
            raise CypherTypeError(f"IN expects a list, got {container!r}")
        saw_null = False
        for item in container:
            equal = cypher_equals(value, item)
            if equal is True:
                return True
            if equal is None:
                saw_null = True
        return None if saw_null else False

    def _eval_CaseExpr(self, expr: ast.CaseExpr, row: Row) -> Any:
        if expr.subject is not None:
            subject = self.evaluate(expr.subject, row)
            for condition, result in expr.whens:
                if cypher_equals(subject, self.evaluate(condition, row)) is True:
                    return self.evaluate(result, row)
        else:
            for condition, result in expr.whens:
                if is_truthy(self.evaluate(condition, row)) is True:
                    return self.evaluate(result, row)
        if expr.default is not None:
            return self.evaluate(expr.default, row)
        return None

    def _eval_ListComprehension(self, expr: ast.ListComprehension, row: Row) -> Any:
        source = self.evaluate(expr.source, row)
        if source is None:
            return None
        if not isinstance(source, list):
            raise CypherTypeError("list comprehension requires a list source")
        output = []
        for item in source:
            inner = dict(row)
            inner[expr.variable] = item
            if expr.predicate is not None:
                if is_truthy(self.evaluate(expr.predicate, inner)) is not True:
                    continue
            if expr.projection is not None:
                output.append(self.evaluate(expr.projection, inner))
            else:
                output.append(item)
        return output

    def _eval_Quantifier(self, expr: ast.Quantifier, row: Row) -> Optional[bool]:
        source = self.evaluate(expr.source, row)
        if source is None:
            return None
        if not isinstance(source, list):
            raise CypherTypeError(f"{expr.kind}() requires a list, got {source!r}")
        trues = falses = nulls = 0
        for item in source:
            inner = dict(row)
            inner[expr.variable] = item
            outcome = is_truthy(self.evaluate(expr.predicate, inner))
            if outcome is True:
                trues += 1
            elif outcome is False:
                falses += 1
            else:
                nulls += 1
        if expr.kind == "any":
            if trues > 0:
                return True
            return None if nulls else False
        if expr.kind == "all":
            if falses > 0:
                return False
            return None if nulls else True
        if expr.kind == "none":
            if trues > 0:
                return False
            return None if nulls else True
        # single: exactly one true
        if nulls:
            return None
        return trues == 1

    def _eval_Reduce(self, expr: ast.Reduce, row: Row) -> Any:
        source = self.evaluate(expr.source, row)
        if source is None:
            return None
        if not isinstance(source, list):
            raise CypherTypeError(f"reduce() requires a list, got {source!r}")
        accumulator = self.evaluate(expr.initial, row)
        for item in source:
            inner = dict(row)
            inner[expr.accumulator] = accumulator
            inner[expr.variable] = item
            accumulator = self.evaluate(expr.expression, inner)
        return accumulator

    def _eval_PatternPredicate(self, expr: ast.PatternPredicate, row: Row) -> bool:
        return bool(self.context.match_pattern(expr.pattern, row, limit=1))

    def _eval_PatternComprehension(self, expr: ast.PatternComprehension, row: Row) -> list[Any]:
        output: list[Any] = []
        for matched in self.context.match_pattern(expr.pattern, row):
            if expr.predicate is not None:
                if is_truthy(self.evaluate(expr.predicate, matched)) is not True:
                    continue
            output.append(self.evaluate(expr.projection, matched))
        return output

    def _eval_ExistsExpr(self, expr: ast.ExistsExpr, row: Row) -> bool:
        if isinstance(expr.target, ast.PatternPart):
            return bool(self.context.match_pattern(expr.target, row, limit=1))
        return self.evaluate(expr.target, row) is not None

    def _eval_CountStar(self, expr: ast.CountStar, row: Row) -> Any:
        raise CypherSyntaxError("count(*) is only allowed in a projection")

    def _eval_FunctionCall(self, expr: ast.FunctionCall, row: Row) -> Any:
        if is_aggregate_function(expr.name):
            raise CypherSyntaxError(
                f"aggregate function {expr.name}() is only allowed in a projection"
            )
        args = [self.evaluate(arg, row) for arg in expr.args]
        return call_scalar(self.context.store, expr.name, args)

    # -- aggregation ------------------------------------------------------

    def evaluate_aggregate(self, expr: ast.Expr, group_rows: list[Row]) -> Any:
        """Evaluate ``expr`` in aggregate context over ``group_rows``.

        Aggregate calls consume the whole group; everything else is
        evaluated against the group's first row (grouping keys are constant
        within a group by construction).
        """
        if isinstance(expr, ast.CountStar):
            return len(group_rows)
        if isinstance(expr, ast.FunctionCall) and is_aggregate_function(expr.name):
            name = expr.name.lower()
            if name in ("percentilecont", "percentiledisc"):
                if len(expr.args) != 2:
                    raise CypherRuntimeError(f"{expr.name}() expects two arguments")
                values = [self.evaluate(expr.args[0], row) for row in group_rows]
                first = group_rows[0] if group_rows else {}
                fraction = self.evaluate(expr.args[1], first)
                return percentile(values, float(fraction), disc=name.endswith("disc"))
            if len(expr.args) != 1:
                raise CypherRuntimeError(f"{expr.name}() expects one argument")
            values = [self.evaluate(expr.args[0], row) for row in group_rows]
            return call_aggregate(expr.name, values, distinct=expr.distinct)
        if isinstance(expr, ast.BinaryOp):
            left = self.evaluate_aggregate(expr.left, group_rows)
            right = self.evaluate_aggregate(expr.right, group_rows)
            shim = ast.BinaryOp(op=expr.op, left=ast.Literal(left), right=ast.Literal(right))
            return self.evaluate(shim, {})
        if isinstance(expr, ast.UnaryOp):
            value = self.evaluate_aggregate(expr.operand, group_rows)
            return self.evaluate(ast.UnaryOp(op=expr.op, operand=ast.Literal(value)), {})
        if isinstance(expr, ast.Comparison):
            values = [self.evaluate_aggregate(op, group_rows) for op in expr.operands]
            shim = ast.Comparison(
                operands=tuple(ast.Literal(v) for v in values), ops=expr.ops
            )
            return self.evaluate(shim, {})
        if isinstance(expr, ast.FunctionCall):
            args = [self.evaluate_aggregate(arg, group_rows) for arg in expr.args]
            return call_scalar(self.context.store, expr.name, args)
        if isinstance(expr, ast.ListLiteral):
            return [self.evaluate_aggregate(item, group_rows) for item in expr.items]
        if isinstance(expr, ast.CaseExpr):
            first = group_rows[0] if group_rows else {}
            return self.evaluate(expr, first)
        first = group_rows[0] if group_rows else {}
        return self.evaluate(expr, first)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _store_write(write: Any, *args: Any) -> Any:
    """Run one store mutation.  The store rejects a value outside the
    property value space (a map, or a list holding one) with ``TypeError``;
    Cypher reports that as a :class:`CypherTypeError`."""
    try:
        return write(*args)
    except TypeError as exc:
        raise CypherTypeError(str(exc)) from None


def _pick_lookup_property(
    store: GraphStore, node_pattern: ast.NodePattern
) -> tuple[str, ast.Expr]:
    """The inline property to look up by: an indexed one when possible."""
    for key, expr in node_pattern.properties:
        for label in node_pattern.labels:
            if store.has_property_index(label, key):
                return key, expr
    return node_pattern.properties[0]


def _pick_lookup_label(store: GraphStore, node_pattern: ast.NodePattern, key: str) -> str:
    """The label to pair with ``key`` (the indexed one when possible)."""
    for label in node_pattern.labels:
        if store.has_property_index(label, key):
            return label
    return node_pattern.labels[0]


def _node_selectivity(node_pattern: ast.NodePattern, row: Row) -> int:
    """Rough anchor-selection score (bound ≫ property-constrained ≫ labeled)."""
    if node_pattern.variable is not None and node_pattern.variable in row:
        return 100
    score = 0
    if node_pattern.properties:
        score += 10
    if node_pattern.labels:
        score += 2
    return score


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
