"""Query executor: evaluates a parsed Cypher AST against a GraphStore.

The engine lowers each query (:mod:`repro.cypher.lowering`) into a tree
of pull-based physical operators (:mod:`repro.cypher.operators`): every
pattern part, of MATCH or a pattern expression, is planned by
:mod:`repro.cypher.planner` against live graph statistics.  The planner
ranks both ends of each pattern part (bound variable, then exact lookup,
then smallest-label scan, then all-nodes scan) and anchors the better
one; when both ends are label scans, the end with fewer label rows plus
first-hop edges anchors, and every other tie goes left to right.  WHERE
equality/IN/range predicates are pushed down into lookups and bind-time
filters, and each planned part becomes an explicit
``AnchorScan → Expand* → Match`` operator chain.  The tree executes
Volcano-style, one generator per operator: each iterates its child's
generator and charges every row it emits inline (a pattern operator:
every node and relationship it examines), so a row costs one
generator resume per operator it crosses, and a downstream LIMIT/top-k
stops pulling and the whole upstream pipeline terminates early.  Only
blocking operators (Sort, Aggregate, write barriers) materialise
rows.  Queries are cached per shape, keyed by the text's form (the text
between its literals) and its literals' kinds, kept spellings and equality
pattern: one tree with the other literals lifted into slots, and its plans
and operator tree for the current statistics version, so a new text of a
known shape is neither tokenized nor parsed.  The operator tree holds no
run state, so every run and thread shares it; a run keeps its counters,
SKIP/LIMIT counts and argument rows in its execution context.  Per text the
engine keeps the slot values and, for a read-only query, its last result,
reused while the graph's statistics version is unchanged; for a text that
does not parse, it keeps the syntax error.
``planner=False`` plans every part by a fixed shape-only rule instead,
with no pushdown: the reference the tests check planned execution against.
This module holds the engine and the per-run execution context with the
matching primitives the operators share (candidate scans, binding,
expansion, shortest paths); the evaluator and the write clauses live in
:mod:`repro.cypher.evaluator` and :mod:`repro.cypher.writes`.

Entry points: :class:`CypherEngine` — ``engine.run(query, **params)``
for the classic API, ``engine.execute(query, params, deadline=...,
row_budget=..., profile=...)`` for deadline-aware, budgeted, profiled
execution, ``engine.profile(query, **params)`` for the per-operator
``PROFILE`` tree (rows produced + wall-time per operator), and
``engine.explain(query, **params)`` for the same tree, not executed.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from typing import Any, Iterator, Optional

from ..faults import fault_point
from ..graph.model import Node, Path, Relationship
from ..graph.store import GraphStore
from . import ast_nodes as ast
from .errors import CypherRuntimeError, CypherSyntaxError, CypherTypeError, UnsupportedWrite
from .evaluator import Evaluator
from .functions import compare_once
from .lowering import LoweredQuery, lower_query
from .operators import RuntimeState, profile_tree, render_profile
from .lexer import LITERAL_SPLIT, tokenize
from .parser import MAX_EXPRESSION_DEPTH, LiteralForm, parse_shape
from .planner import (
    AnchorPlan,
    Filters,
    PushedFilter,
    pattern_sites,
    plan_query,
)
from .result import Record, ResultSet
from .safety import tree_is_read_only
from .values import cypher_equals
from .writes import WriteClauses

__all__ = ["CypherEngine", "execute"]

Row = dict[str, Any]
#: paths as their node and relationship lists
_Paths = list[tuple[list[Node], list[Relationship]]]


def execute(store: GraphStore, query: str, **params: Any) -> ResultSet:
    """One-shot convenience wrapper around :class:`CypherEngine`."""
    return CypherEngine(store).run(query, **params)


_MISSING = object()

#: expression classes whose value is fixed for a whole run
_ROW_FREE = (ast.Literal, ast.Slot, ast.Parameter)

#: the shape-cache value of a form's key whose texts are shapes of their own
_OWN = object()


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


class _Shape:
    """Everything the engine keeps for one query shape.

    ``tree`` is the shape's parse with its lifted literals as
    :class:`~.ast_nodes.Slot` nodes.  ``sites`` lists the tree's pattern
    parts with the variables bound at each (:func:`~.planner.pattern_sites`).
    ``plans`` is ``(stats_version, plans, lowered)``: the plans and the
    operator tree lowered from them, which every run of the shape shares.
    It is replaced by one assignment, so a concurrent reader sees a whole
    tuple or the old one.
    """

    __slots__ = ("tree", "read_only", "sites", "plans")

    def __init__(self, tree: ast.Query) -> None:
        self.tree = tree
        self.read_only = tree_is_read_only(tree)
        self.sites = pattern_sites(tree)
        self.plans: tuple[int, dict[int, Any], Optional[LoweredQuery]] = (-1, {}, None)


class _QueryEntry:
    """Everything the engine keeps for one query text: its shape, the
    values of the shape's slots, and the memo.

    ``memo`` is ``(stats_version, result, rows_charged)``, replaced by one
    assignment like :attr:`_Shape.plans`.
    """

    __slots__ = ("shape", "slots", "memo")

    def __init__(self, shape: _Shape, slots: tuple) -> None:
        self.shape = shape
        self.slots = slots
        self.memo: Optional[tuple[int, ResultSet, int]] = None


class CypherEngine:
    """Executes Cypher text against one :class:`GraphStore`.

    The engine caches queries at three levels, each a bounded LRU of
    ``cache_size`` entries.  A text's *form* is the text between the
    literals :data:`~.lexer.LITERAL_SPLIT` cuts out; per form the engine
    keeps a :class:`~.parser.LiteralForm`, which tells which literals stay
    in the shape key.  A query *shape* is keyed by the form and
    :meth:`~.parser.LiteralForm.fill`'s signature of the text's literals;
    per shape the engine keeps one tree with the other literals lifted into
    slots, its read-only flag and pattern sites, and its plans and lowered
    operator tree for the current statistics version.  A text is a shape of
    its own, keyed by the text, when it has backticks or backslashes, when
    the split does not find its literals as the lexer does, when a number
    is past ``int()``'s digit limit, or when a lifted literal would name a
    column or is syntax (:func:`~.parser.parse_shape`).  Per query *text* it
    keeps the slot values and, for a read-only query, the last result.  A
    new text of a known form and shape is neither tokenized, parsed,
    planned nor lowered; a repeated text is one dict lookup, and a repeated
    read-only text without parameters or PROFILE on an unchanged graph
    returns its last result without executing.  Every store mutation bumps
    ``stats_version``, which retires plans and memos.  ``planner=False``
    disables planning entirely: the semantic reference that planned
    execution is checked against.
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
        self._shapes: _LRUCache = _LRUCache(cache_size)
        self._forms: _LRUCache = _LRUCache(cache_size)
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
        """Query-cache counters: cached texts and shapes, memo hits, memoised rows."""
        with self._memo_lock:
            return {
                "entries": len(self._entries),
                "shapes": len(self._shapes),
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
        as operators charge their work; an overrun raises
        :class:`~repro.cypher.errors.CypherDeadlineExceeded`.
        ``row_budget`` bounds the units charged across all operators (every
        node and relationship a pattern operator examines, every row any
        other operator emits; None, the default, leaves them unbounded), raising
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
        reusable = entry.shape.read_only and not params and not profile
        if reusable:
            memo = entry.memo
            if memo is not None and memo[0] == version and (
                row_budget is None or row_budget >= memo[2]
            ):
                RuntimeState(deadline=deadline).check_deadline()
                with self._memo_lock:
                    self._result_hits += 1
                return ResultSet(memo[1].keys, memo[1].records)
        result, run = self._execute(
            entry, params or {}, deadline=deadline, row_budget=row_budget, profiled=profile
        )
        if profile:
            result.profile = profile_tree(run.root, run)
        elif reusable:
            self._memoise(entry, version, result, run.state.rows)
        return result

    def is_read_only(self, query: str) -> bool:
        """True when ``query`` has no write clause; False also for a write
        the engine does not run (:class:`~.errors.UnsupportedWrite`).
        Parses through the query cache, so a following :meth:`execute`
        does not parse again.

        Raises:
            CypherSyntaxError: if the query does not parse.
        """
        try:
            return self._entry(query).shape.read_only
        except UnsupportedWrite:
            return False

    def _entry(self, query: str) -> _QueryEntry:
        """The cache entry for ``query``, made on a miss.  A text that does
        not parse keeps its syntax error in its slot, and every lookup
        raises a copy of it: same class, message and position."""
        entry = self._entries.get(query)
        if entry is None:
            try:
                entry = self._new_entry(query)
            except CypherSyntaxError as error:
                entry = error.with_traceback(None)  # keep no parser frames
            self._entries[query] = entry
        if entry.__class__ is not _QueryEntry:
            raise copy.copy(entry)
        return entry

    def _new_entry(self, query: str) -> _QueryEntry:
        """Find ``query``'s shape: through its form when the form is known
        and its shape cached, else by tokenizing, parsing the text itself on
        a shape miss, so a syntax error always carries its own positions."""
        form = known = found = None
        # Backslashes (string escapes) and backtick names make a text a
        # shape of its own.
        if "`" not in query and "\\" not in query:
            parts = LITERAL_SPLIT.split(query)
            form = tuple(parts[::2])
            known = self._forms.get(form)
            if known is not None:
                found = known.fill(parts[1::2])
                if found is not None:
                    shape = self._shapes.get((form, found[0]))
                    if shape.__class__ is _Shape:
                        return _QueryEntry(shape, found[1])
        tokens = tokenize(query)
        if form is not None and found is None:
            # A new form, or literals of other kinds than its first text's.
            template = LiteralForm.of(tokens, parts)
            if template is not None:
                if known is None:
                    self._forms[form] = template
                found = template.fill(parts[1::2])
        if found is not None:
            key = (form, found[0])
            shape = self._shapes.get(key)
            if shape is None:
                slots = {index: ast.Slot(k, group)
                         for k, (index, _, group) in enumerate(found[2])}
                tree = parse_shape(query, tokens, slots)
                shape = self._shapes[key] = _OWN if tree is None else _Shape(tree)
            if shape is not _OWN:
                return _QueryEntry(shape, found[1])
        # A shape of its own: a literal the lexer does not find where the
        # split does, a number past int()'s digit limit, a literal that
        # would name a column or that is syntax.
        shape = self._shapes.get(query)
        if shape is None:
            shape = self._shapes[query] = _Shape(parse_shape(query, tokens, {}))
        return _QueryEntry(shape, ())

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

    def _drop_memo(self, entry: _QueryEntry | CypherSyntaxError) -> None:
        """Release an evicted entry's memo and its rows from the cap."""
        if entry.__class__ is not _QueryEntry:  # a kept syntax error
            return
        with self._memo_lock:
            self._memoised_rows -= self._memos.pop(entry, 0)
            entry.memo = None

    def _start(
        self,
        entry: _QueryEntry,
        params: dict[str, Any],
        deadline: Any = None,
        row_budget: Optional[int] = None,
        profiled: bool = False,
    ) -> _ExecutionContext:
        """A run of ``entry``'s shape's operator tree with ``entry``'s slot
        values, up to its first row.

        Plans and lowers once per shape and statistics version, a lowering
        that failed included: its error depends on the tree alone, and each
        run raises a copy of it.  The run reads the deadline and evaluates
        its SKIP/LIMIT counts before raising that error.
        """
        if params:
            _check_parameter_depth(params)
        shape = entry.shape
        version, plans, lowered = shape.plans
        if version != self.store.stats_version:
            stats = self.store.statistics()
            plans = plan_query(shape.tree, stats, self.planner, shape.sites)
            lowered = lower_query(shape.tree, plans, shape.sites)
            shape.plans = (stats.version, plans, lowered)
        state = RuntimeState(deadline, row_budget, profiled, lowered.size)
        run = _ExecutionContext(
            self.store, params, entry.slots, self.max_var_length, state, lowered
        )
        state.check_deadline()
        run.bounds = [run._bounded_int(expr, what) for expr, what in lowered.bounds]
        if lowered.error is not None:
            raise copy.copy(lowered.error)
        return run

    def _execute(
        self,
        entry: _QueryEntry,
        params: dict[str, Any],
        *,
        deadline: Any = None,
        row_budget: Optional[int] = None,
        profiled: bool = False,
    ) -> tuple[ResultSet, _ExecutionContext]:
        """Run ``entry`` (see :meth:`_start`).  Returns the result plus the
        run (its counters feed ``PROFILE`` rendering and ``ResultSet.profile``)."""
        run = self._start(entry, params, deadline, row_budget, profiled)
        produced = run.root.open(run)
        try:
            rows = list(produced)
        finally:
            produced.close()
        keys = run.root.keys()
        # Adopt-without-copy: each values list is single-owner and the keys
        # list is shared read-only across every record of the result.
        records = [Record.of(keys, values) for values in rows]
        return ResultSet(keys, records, **run.counters()), run

    def profile(self, query: str, **params: Any) -> tuple[ResultSet, str]:
        """Execute ``query`` and report the physical operator tree.

        Returns the normal result plus a text rendering of the executed
        tree: one line per operator with the rows it actually produced and
        its inclusive wall-clock time, so hot operators are visible at a
        glance.
        """
        result, run = self._execute(self._entry(query), params, profiled=True)
        result.profile = profile_tree(run.root, run)
        return result, render_profile(result.profile)

    def explain(self, query: str, **params: Any) -> str:
        """The operator tree :meth:`execute` would run for ``query`` with
        ``params``, rendered as :meth:`profile` renders it but without rows
        and times.  Nothing is executed.

        The tree is the one the query cache holds for the query's shape and
        the graph's statistics version: a pattern operator's detail names
        its access path (``HashLookup`` says ``label scan`` when no index
        serves it) and the pushed WHERE filters it applies.  SKIP/LIMIT
        counts are evaluated as a run evaluates them.

        Raises:
            CypherError: what a run would raise before its first row: a
                syntax error, an error from lowering, or a SKIP/LIMIT
                count that is not a non-negative integer.
        """
        run = self._start(self._entry(query), params)
        return render_profile(profile_tree(run.root, run))


def _check_parameter_depth(params: dict[str, Any]) -> None:
    """Raise when a parameter's lists and maps nest deeper than a literal
    may: past MAX_EXPRESSION_DEPTH levels, a scalar or an empty list or map
    counting as one.  A value decoded from a client's JSON can nest far
    past what rendering and comparison recurse through."""
    for name, value in params.items():
        stack = [(value, 1)]
        while stack:
            value, depth = stack.pop()
            if depth > MAX_EXPRESSION_DEPTH:
                raise CypherRuntimeError(f"parameter ${name} nested too deeply")
            if isinstance(value, dict):
                value = value.values()
            elif not isinstance(value, list):
                continue
            stack.extend([(item, depth + 1) for item in value])


# ---------------------------------------------------------------------------
# Execution context: pattern matching primitives
# ---------------------------------------------------------------------------

class _ExecutionContext(WriteClauses):
    """One run of a shared operator tree: the store, parameters, slot
    values, runtime state and write counters, the SKIP/LIMIT counts
    (``bounds``) and the row each ``Argument`` leaf yields (``arguments``,
    by operator number)."""

    def __init__(
        self,
        store: GraphStore,
        params: dict[str, Any],
        slots: tuple,
        max_var_length: int,
        state: RuntimeState,
        lowered: LoweredQuery,
    ):
        self.store = store
        self.params = params
        self.slots = slots
        self.max_var_length = max_var_length
        # the run's row budget, deadline and per-operator counters
        self.state = state
        self.root = lowered.root
        self.chains = lowered.chains
        self.bounds: list[int] = []
        self.arguments: dict[int, Row] = {}
        self.evaluator = Evaluator(self)
        # id(expr) -> value for pushed-filter expressions and row-free
        # inline property values: their value is fixed per execution
        self._filter_values: dict[int, Any] = {}

    def _filter_value(self, expr: ast.Expr) -> Any:
        """Memoised evaluation of a row-independent value."""
        cache, key = self._filter_values, id(expr)
        if key not in cache:
            cache[key] = self.evaluator.evaluate(expr, {})
        return cache[key]

    def matches(self, node: Any, row: Row, first_only: bool = False) -> list[Row]:
        """The rows ``row`` extends to through the sub-chain of ``node``, a
        pattern expression; only the first with ``first_only``."""
        return self.chains[id(node)].matches(self, row, first_only)

    def _match_shortest(
        self, op: Any, row: Row, used: frozenset[int]
    ) -> Iterator[tuple[Row, frozenset[int]]]:
        """Match the ``shortestPath``/``allShortestPaths`` part of the
        ``ShortestPath`` operator ``op`` from ``row``.

        The planned access paths give the candidates of each endpoint, the
        end's read with the start bound; each pair runs one breadth-first
        search bounded by the hop range.  Charges every endpoint candidate
        it tries and every step of its searches.
        """
        part, filters, state = op.part, op.filters, self.state
        start_pattern, rel_pattern, end_pattern = part.elements
        max_hops = self.max_var_length if op.max_hops is None else op.max_hops
        for start in self._node_candidates(start_pattern, row, op.start_anchor):
            state.rows += 1
            if state.rows > state.limit:
                state.overflow()
            start_row = self._bind_node(start_pattern, start, row, filters)
            if start_row is None:
                continue
            for end in self._node_candidates(end_pattern, start_row, op.end_anchor):
                state.rows += 1
                if state.rows > state.limit:
                    state.overflow()
                end_row = self._bind_node(end_pattern, end, start_row, filters)
                if end_row is None:
                    continue
                for nodes, rels in self._bfs_shortest(
                    start, end, rel_pattern, end_row, op.min_hops, max_hops, op.all_paths
                ):
                    final = dict(end_row)
                    if rel_pattern.variable is not None:
                        final[rel_pattern.variable] = list(rels)
                    if part.path_variable is not None:
                        final[part.path_variable] = Path(nodes, rels)
                    yield final, used | {rel.rel_id for rel in rels}

    def _bfs_shortest(self, start: Node, end: Node, rel_pattern: ast.RelPattern, row: Row,
                      min_hops: int, max_hops: int, all_paths: bool) -> _Paths:
        """The minimum-length paths from ``start`` to ``end`` in the hop
        range: the first one found, or with ``all_paths`` every one.

        One level-synchronous search keeps, for each node it reaches, the
        edges into it from the level that first reached it: the first in
        ``parents``, the others (all paths only) in ``more``.  A single path
        returns at the first edge into ``end``; all paths finish that level.
        Charges every relationship it reads.
        """
        start_id, end_id = start.node_id, end.node_id
        if min_hops == 0 and start_id == end_id:
            return [([start], [])]
        adjacent, state, props = self.store.adjacent_relationships, self.state, rel_pattern.properties
        direction, types = rel_pattern.direction, rel_pattern.types or None
        parents: dict[int, Any] = {start_id: None}
        more: dict[int, list[tuple[int, Relationship]]] = {}
        # the nodes first reached at the last depth, in discovery order
        frontier: dict[int, None] = {start_id: None}
        depth = 0
        while frontier and depth < max_hops:
            depth += 1
            level: dict[int, None] = {}
            for node_id in frontier:
                for rel in adjacent(node_id, direction, types):
                    state.rows += 1
                    if state.rows > state.limit:
                        state.overflow()
                    if props and not self._properties_match(rel, props, row):
                        continue
                    other_id = rel.other_end(node_id)
                    if other_id in parents:
                        if all_paths and other_id in level:
                            more.setdefault(other_id, []).append((node_id, rel))
                        continue
                    parents[other_id] = (node_id, rel)
                    if other_id == end_id and depth >= min_hops and not all_paths:
                        return self._paths_back(start, end_id, parents, more, False)
                    level[other_id] = None
            if end_id in level and depth >= min_hops:
                return self._paths_back(start, end_id, parents, more, True)
            frontier = level
        return []

    def _paths_back(self, start: Node, end_id: int, parents: dict[int, Any],
                    more: dict[int, list], charge: bool) -> _Paths:
        """Every path to ``end_id`` over the edges a search kept, read back
        from the end: the last hop varies slowest, each hop's edges in the
        order the search found them.  With ``charge``, every partial path
        built is charged."""
        state = self.state
        # (first node id, (relationship out of it, next node id, rest) or None)
        suffixes: list[tuple[int, Any]] = [(end_id, None)]
        while suffixes[0][0] != start.node_id:
            longer = []
            for node_id, rest in suffixes:
                for parent_id, rel in (parents[node_id], *more.get(node_id, ())):
                    if charge:
                        state.rows += 1
                        if state.rows > state.limit:
                            state.overflow()
                    longer.append((parent_id, (rel, node_id, rest)))
            suffixes = longer
        paths = []
        for _, rest in suffixes:
            nodes, rels = [start], []
            while rest is not None:
                rel, node_id, rest = rest
                nodes.append(self.store.node(node_id))
                rels.append(rel)
            paths.append((nodes, rels))
        return paths

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
        """Every trail of the hop range from ``current``, depth first in
        adjacency order; charges every relationship the walk reads."""
        min_hops = rel_pattern.min_hops if rel_pattern.min_hops is not None else 1
        max_hops = rel_pattern.max_hops if rel_pattern.max_hops is not None else self.max_var_length
        if max_hops > self.max_var_length:
            max_hops = self.max_var_length
        if min_hops == 0:
            yield [], current
        if max_hops < 1:
            return
        state, props = self.state, rel_pattern.properties
        direction, types = rel_pattern.direction, rel_pattern.types or None
        adjacent, nodes = self.store.adjacent_relationships, self.store._nodes
        # One frame per hop of the trail being extended: the rest of its
        # node's adjacency, the node, the trail and the trail's ids.
        stack = [(iter(adjacent(current.node_id, direction, types)), current, [], frozenset())]
        while stack:
            rels, node, taken, taken_ids = stack[-1]
            for rel in rels:
                state.rows += 1
                if state.rows > state.limit:
                    state.overflow()
                if rel.rel_id in used or rel.rel_id in taken_ids:
                    continue
                if props and not self._properties_match(rel, props, row):
                    continue
                next_node = nodes[rel.other_end(node.node_id)]
                extended = taken + [rel]
                if len(extended) >= min_hops:
                    yield extended, next_node
                if len(extended) < max_hops:
                    stack.append((iter(adjacent(next_node.node_id, direction, types)),
                                  next_node, extended, taken_ids | {rel.rel_id}))
                    break
            else:
                stack.pop()

    def _properties_match(self, entity: Any, properties: tuple, row: Row) -> bool:
        """Whether ``entity`` holds a pattern's inline ``properties``; a literal,
        slot or parameter value, or its negation, is evaluated once per run."""
        for key, expr in properties:
            operand = expr.operand if expr.__class__ is ast.UnaryOp else expr
            if operand.__class__ in _ROW_FREE:
                wanted = self._filter_value(expr)
            else:
                wanted = self.evaluator.evaluate(expr, row)
            if cypher_equals(entity.properties.get(key), wanted) is not True:
                return False
        return True

    def _node_candidates(
        self, node_pattern: ast.NodePattern, row: Row, anchor: AnchorPlan
    ) -> Iterator[Node]:
        """Candidate nodes for the anchor position of a pattern part.

        A variable the row binds is its one candidate; otherwise the
        anchor's access path, a lookup with no index scanning its label.
        Every candidate is still fully verified by :meth:`_bind_node`, so a
        stale or suboptimal plan can never change results.
        """
        variable = node_pattern.variable
        if variable is not None and variable in row:
            bound = row[variable]
            if bound is None:
                return
            if not isinstance(bound, Node):
                raise CypherTypeError(f"variable {variable!r} is not a node: {bound!r}")
            yield bound
        elif anchor.indexed:
            seen: set[int] = set()
            for expr in anchor.values:
                value = self.evaluator.evaluate(expr, row)
                for node in self.store.nodes_by_property(anchor.label, anchor.key, value):
                    if node.node_id not in seen:
                        seen.add(node.node_id)
                        yield node
        elif anchor.kind == "all":
            yield from self.store.all_nodes()
        elif anchor.kind == "bound":
            raise CypherRuntimeError(f"unknown variable: {variable}")
        else:
            yield from self.store.nodes_by_label(anchor.label)

    def _bind_node(
        self,
        node_pattern: ast.NodePattern,
        node: Node,
        row: Row,
        filters: Optional[Filters] = None,
    ) -> Optional[Row]:
        """Check constraints of ``node_pattern`` against ``node``; bind if ok."""
        variable, properties = node_pattern.variable, node_pattern.properties
        if (
            not node.labels.issuperset(node_pattern.labels)
            or properties and not self._properties_match(node, properties, row)
            or filters and variable is not None
            and not self._passes_filters(node.properties, filters.get(variable))
        ):
            return None
        if variable is None:
            return row
        if variable in row:
            bound = row[variable]
            return row if isinstance(bound, Node) and bound.node_id == node.node_id else None
        return {**row, variable: node}

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

