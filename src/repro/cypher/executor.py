"""Query executor: evaluates a parsed Cypher AST against a GraphStore.

The engine lowers each query (:mod:`repro.cypher.lowering`) into a tree
of pull-based physical operators (:mod:`repro.cypher.operators`): every
pattern part, of MATCH, MERGE or a pattern expression, is planned by
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
afresh against the current statistics; ``planner=False`` plans every part
by a fixed shape-only rule instead, with no pushdown: the reference the
tests check planned execution against.  This module holds the engine and
the per-run execution context with the matching primitives the operators
share (candidate scans, binding, expansion, shortest paths); the
evaluator and the write clauses live in :mod:`repro.cypher.evaluator`
and :mod:`repro.cypher.writes`.

Entry points: :class:`CypherEngine` — ``engine.run(query, **params)``
for the classic API, ``engine.execute(query, params, deadline=...,
row_budget=..., profile=...)`` for deadline-aware, budgeted, profiled
execution, and ``engine.profile(query, **params)`` for the per-operator
``PROFILE`` tree (rows produced + wall-time per operator).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterator, Optional

from ..faults import fault_point
from ..graph.model import Node, Path, Relationship
from ..graph.store import GraphStore
from . import ast_nodes as ast
from . import operators as ops
from .errors import CypherRuntimeError, CypherTypeError
from .evaluator import Evaluator
from .functions import compare_once
from .lowering import explain, lower_pattern, lower_query
from .operators import RuntimeState, profile_tree, render_profile
from .parser import parse
from .planner import (
    AnchorPlan,
    Filters,
    PartPlan,
    PushedFilter,
    Site,
    fixed_anchor,
    pattern_part,
    pattern_sites,
    plan_query,
)
from .result import Record, ResultSet
from .safety import tree_is_read_only
from .values import cypher_equals
from .writes import WriteClauses

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

    ``sites`` lists the tree's pattern parts with the variables bound at
    each (:func:`~.planner.pattern_sites`), so an execution only plans them.
    ``memo`` is ``(stats_version, result, rows_charged)``, replaced by one
    assignment, so a concurrent reader sees a whole tuple or the old one.
    """

    __slots__ = ("tree", "read_only", "sites", "memo")

    def __init__(self, tree: ast.Query) -> None:
        self.tree = tree
        self.read_only = tree_is_read_only(tree)
        self.sites = pattern_sites(tree)
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
            sites=entry.sites,
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
        sites: Optional[list[Site]] = None,
    ) -> tuple[ResultSet, ops.PhysicalOperator]:
        """Plan ``tree``, lower it into a physical operator tree and drain it.

        ``sites`` is the tree's :func:`~.planner.pattern_sites`, if known.
        Returns the result plus the executed tree root (its counters feed
        ``PROFILE`` rendering and the ``cypher_profile`` diagnostics).
        """
        plans = plan_query(tree, self.store.statistics(), self.planner, sites)
        state = RuntimeState(deadline=deadline, budget=row_budget, profiled=profiled)
        context = _ExecutionContext(self.store, params, self.max_var_length, state, plans)
        state.check_deadline()
        root = lower_query(tree, context, state)
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
        entry = self._entry(query)
        result, root = self._execute(entry.tree, params, profiled=True, sites=entry.sites)
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
        return explain(tree, plan_query(tree, self.store.statistics(), self.planner))


# ---------------------------------------------------------------------------
# Execution context: pattern matching primitives
# ---------------------------------------------------------------------------

class _ExecutionContext(WriteClauses):
    """Holds the store, parameters, runtime state, plans and write counters for one run."""

    def __init__(
        self,
        store: GraphStore,
        params: dict[str, Any],
        max_var_length: int,
        state: RuntimeState,
        plans: dict[int, Any],
    ):
        self.store = store
        self.params = params
        self.max_var_length = max_var_length
        # the run's row budget and deadline, charged by every operator
        self.state = state
        self.plans = plans
        # pattern expressions and MERGE match through sub-chains, by node id
        self.has_subchains = any(type(plan) is PartPlan for plan in plans.values())
        self.pattern_chains: dict[int, ops.PatternChain] = {}
        self.evaluator = Evaluator(self)
        # id(expr) -> value for pushed-filter expressions; those are
        # Literal/Parameter only, so their value is fixed per execution
        self._filter_values: dict[int, Any] = {}

    def _filter_value(self, expr: ast.Expr) -> Any:
        """Memoised evaluation of a pushed filter's row-independent value."""
        cache = self._filter_values
        key = id(expr)
        if key in cache:
            return cache[key]
        value = self.evaluator.evaluate(expr, {})
        cache[key] = value
        return value

    def pattern_chain(self, node: Any) -> ops.PatternChain:
        """The chain of ``node``, a pattern expression or a MERGE clause,
        lowered on first use with the plan made for it."""
        key = id(node)
        if key not in self.pattern_chains:
            plan = self.plans[key]
            self.pattern_chains[key] = lower_pattern(pattern_part(node), plan, self, self.state)
        return self.pattern_chains[key]

    def _match_shortest(
        self,
        part: ast.PatternPart,
        row: Row,
        used: frozenset[int],
        filters: Optional[Filters] = None,
    ) -> Iterator[tuple[Row, frozenset[int]]]:
        """Match ``shortestPath((a)-[...]-(b))`` via breadth-first search.

        Both endpoint patterns are resolved first, each by the fixed anchor
        rule (bound variable, inline-property lookup, label scan, all
        nodes) against the row, then a BFS bounded by the relationship
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
        stats = self.store.statistics()
        for start in self._node_candidates(
            start_pattern, row, fixed_anchor(start_pattern, stats, row)
        ):
            start_row = self._bind_node(start_pattern, start, row, filters)
            if start_row is None:
                continue
            for end in self._node_candidates(
                end_pattern, start_row, fixed_anchor(end_pattern, stats, start_row)
            ):
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
        self, node_pattern: ast.NodePattern, row: Row, anchor: AnchorPlan
    ) -> Iterator[Node]:
        """Candidate nodes for the anchor position of a pattern part.

        A variable the row binds is its one candidate; otherwise the
        anchor's access path.  Every candidate is still fully verified by
        :meth:`_bind_node`, so a stale or suboptimal plan can never change
        results.
        """
        variable = node_pattern.variable
        if variable is not None and variable in row:
            bound = row[variable]
            if bound is None:
                return
            if not isinstance(bound, Node):
                raise CypherTypeError(f"variable {variable!r} is not a node: {bound!r}")
            yield bound
        elif anchor.kind == "label":
            yield from self.store.nodes_by_label(anchor.label)
        elif anchor.kind == "all":
            yield from self.store.all_nodes()
        elif anchor.kind == "bound":
            raise CypherRuntimeError(f"unknown variable: {variable}")
        else:
            seen: set[int] = set()
            for expr in anchor.values:
                value = self.evaluator.evaluate(expr, row)
                for node in self.store.nodes_by_property(anchor.label, anchor.key, value):
                    if node.node_id not in seen:
                        seen.add(node.node_id)
                        yield node

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

    def _bounded_int(self, expr: ast.Expr, what: str) -> int:
        value = self.evaluator.evaluate(expr, {})
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise CypherRuntimeError(f"{what} requires a non-negative integer, got {value!r}")
        return value

