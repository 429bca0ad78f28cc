"""The four workloads of the end-to-end benchmark.

Every workload runs the configuration ``python -m repro.server --serve
--deadline-ms 1000`` builds (:func:`served_config`).  It draws its inputs
from the seed in a child process (:func:`draw_inputs`), so the graph
copies and translator behind them never count in the measured process's
memory; builds its system under test afresh several times (``setup_s`` is
the median); runs a fixed number of operations, reading the peak RSS of
just that phase; and only then checks the outputs.  ``--seconds`` sizes a
run: the closed loops run the whole sweeps that took that long on the
reference box, so a faster commit executes exactly the same inputs.

Builds and operations run under a :class:`pace.Pacer`, so every time is
reported twice: as wall time, and as reference time, the wall time scaled
by the host's speed while it passed (``pace.py`` says why).  The gated
timing metrics are reference times.

A traced run repeats the same operations on a second, instrumented
system; the end-to-end numbers always come from the untraced run.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import itertools
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Callable, Optional

import repro
from repro.core import ChatIYP, ChatIYPConfig
from repro.cypher import CypherEngine, CypherError
from repro.iyp import IYPConfig, generate_iyp
from repro.serving import Deadline

import checks
import inputs
from pace import Pacer
from spans import Span, SpanRecorder, StageSpans, instrument_chatiyp, self_times

__all__ = ["WORKLOADS", "Scale", "served_config", "draw_inputs", "SERVED", "SERVER_ARGS"]

DATASET_SEED = 42
DEADLINE_MS = 1000.0
#: an operation later than this multiple of its deadline counts as overrun
OVERRUN_FACTOR = 1.1
#: ``ChatIYPConfig`` fields ``--serve --deadline-ms 1000`` sets; the rest stay default
SERVED = {
    "deadline_ms": DEADLINE_MS,
    "breaker_failure_threshold": 5,
    "answer_cache_size": 256,
    "coalesce_inflight": True,
}
SERVER_ARGS = ("--serve", "--size", "medium", "--port", "0", "--deadline-ms", "1000")
#: one traversal ask and one vector-route ask force every lazy build
WARMUP_QUESTIONS = (
    "Which ASes are members of IXPs located in Japan?",
    "Tell me something about internet exchange points in Europe",
)
WARMUP_QUERY = (
    "MATCH (a:AS)-[:MEMBER_OF]->(:IXP)-[:COUNTRY]->(:Country {country_code: 'JP'}) "
    "RETURN count(DISTINCT a) AS members"
)
#: seconds one sweep took on the reference box: 2 vCPUs, CPython 3.11.  A
#: closed-loop run executes the whole sweeps needed to fill ``--seconds`` there.
ROUND_SECONDS = {"ask_cold_mix": 1.75, "graph_refresh": 4.7}
#: builds per run whose median is ``setup_s``: the large graph takes about
#: 1.5 s to build, the medium system 0.3 s
SETUP_BUILDS = {"medium": 5, "large": 3, "server": 5}
#: traced runs repeat at most this many sweeps (the replay: the first
#: ``1 / TRACED_REPLAY_PART`` of its queries), so they stay short
TRACED_SWEEPS = 4
TRACED_REPLAY_PART = 3
#: Every workload first runs one untimed sweep drawn with this seed offset
#: (the replay: its gold queries): a fresh process runs its first sweep ~30%
#: slower (interpreter specialization, the store's lazily built adjacency
#: and scan caches, heap filling), a cost a served process pays once, not
#: per request.
WARMUP_SWEEP_OFFSET = 1000
WRITE_EVERY = 10
OPEN_LOOP_RATE = 100.0
OPEN_LOOP_WARMUP_S = 5.0
OPEN_LOOP_CLIENTS = 2
#: Zipf exponent of question popularity over the open loop's pool
ZIPF_S = 0.9
#: distinct queries of the large graph the interpreter re-runs
LARGE_CHECK_SAMPLE = 100


def served_config(size: str = "medium") -> ChatIYPConfig:
    return ChatIYPConfig(dataset_size=size, **SERVED)


@dataclass(frozen=True)
class Scale:
    """How much work one run does."""

    seconds: float
    smoke: bool = False

    def rounds(self, workload: str) -> int:
        if self.smoke:
            return 1
        return max(1, math.ceil(self.seconds / ROUND_SECONDS[workload]))

    def setups(self, kind: str) -> int:
        """Builds of the system under test whose median is ``setup_s``."""
        return 1 if self.smoke else SETUP_BUILDS[kind]

    @property
    def limit(self) -> Optional[int]:
        """Operations per round in a smoke run (None = the whole round)."""
        return 40 if self.smoke else None


@dataclass
class Op:
    """One timed operation and what it returned."""

    kind: str  # "ask", "query" or "write"
    #: wall time, less the pacer's samples once :func:`_pace` has run
    latency_ms: float
    question: str = ""
    cypher: Optional[str] = None
    gold: Optional[str] = None
    outcome: str = ""  # translation outcome class of the input
    observed: Optional[checks.Outcome] = None  # rows or error class
    answer: str = ""
    failed: bool = False
    route: str = ""
    cache_hit: bool = False
    coalesced: bool = False
    perturbation: Optional[str] = None
    stage_ms: dict = field(default_factory=dict)
    after_write: bool = False
    late_ms: float = 0.0
    server_ms: float = 0.0
    response_bytes: int = 0
    #: perf_counter at the start and the end of the operation
    start: float = 0.0
    end: float = 0.0
    #: reference time (see :mod:`pace`); wall time where nothing paced it
    ref_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.ref_ms is None:
            self.ref_ms = self.latency_ms

    @property
    def executed(self) -> bool:
        """The symbolic stage ran this op's Cypher (not a cache hit)."""
        return self.cypher is not None and not self.cache_hit and not self.coalesced


# -- measurement helpers ----------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 1))
    return float(ordered[int(min(rank, len(ordered))) - 1])


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _reset_peak_rss(pid="self") -> None:
    """Start a new peak-RSS window for a process (Linux ``clear_refs``);
    where that is refused, the peak keeps counting from the process start."""
    gc.collect()
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb(pid="self") -> float:
    """Peak RSS of a process since its last reset (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


#: set-up phases, each between two of the marks a build returns
SETUP_PHASES = {"dataset_s": (0, 1), "system_s": (1, 2), "warmup_s": (2, 3), "total_s": (0, 3)}


def _timed_builds(build: Callable[[], tuple], repeats: int, paced: bool = True):
    """Build the system ``repeats`` times afresh; keep the last one.

    ``build`` returns the system and four perf_counter marks: start,
    dataset built, system ready, warm-up done.  Each phase's median over
    the builds is in reference seconds, or in wall seconds when not
    ``paced`` (a build that starts a subprocess).
    """
    marks, system = [], None
    with Pacer() if paced else contextlib.nullcontext() as pacer:
        for _ in range(repeats):
            if system is not None:
                _close(system)
            system = None
            gc.collect()
            system, build_marks = build()
            marks.append(build_marks)
    seconds = pacer.reference if paced else (lambda start, end: end - start)
    return system, {
        phase: statistics.median(seconds(m[first], m[last]) for m in marks)
        for phase, (first, last) in SETUP_PHASES.items()
    }


def _close(system) -> None:
    close = getattr(system, "close", None)
    if close is not None:
        close()


def _observed(cypher, symbolic_error, rows) -> Optional[checks.Outcome]:
    if cypher is None:
        return None
    if symbolic_error:
        return checks.error_class(symbolic_error)
    return rows if rows is not None else checks.summarize([])


# -- in-process ChatIYP ------------------------------------------------------


def _build_chatiyp(size: str, observers=()) -> tuple:
    start = time.perf_counter()
    dataset = generate_iyp(getattr(IYPConfig, size)(seed=DATASET_SEED))
    built = time.perf_counter()
    system = ChatIYP(dataset=dataset, config=served_config(size), observers=list(observers))
    ready = time.perf_counter()
    for question in WARMUP_QUESTIONS:
        system.ask(question)
    return system, (start, built, ready, time.perf_counter())


def _ask(system: ChatIYP, question: inputs.Question) -> Op:
    start = time.perf_counter()
    try:
        response = system.ask(question.text)
    except Exception as exc:  # noqa: BLE001 - a raised ask is a failed operation
        end = time.perf_counter()
        return Op("ask", (end - start) * 1000.0, question.text,
                  gold=question.gold_cypher, outcome=question.outcome,
                  answer=f"{type(exc).__name__}: {exc}", failed=True, start=start, end=end)
    end = time.perf_counter()
    diagnostics = response.diagnostics
    rows = checks.rows_of(response.result) if response.result is not None else None
    observed = _observed(response.cypher, diagnostics.get("symbolic_error"), rows)
    return Op(
        "ask", (end - start) * 1000.0, question.text,
        start=start,
        end=end,
        cypher=response.cypher,
        gold=question.gold_cypher,
        outcome=question.outcome,
        observed=observed,
        answer=response.answer,
        failed=bool(diagnostics.get("degraded")) or observed == checks.DEADLINE,
        route=response.retrieval_source,
        cache_hit=bool(diagnostics.get("cache_hit")),
        coalesced=bool(diagnostics.get("coalesced")),
        perturbation=(diagnostics.get("generation") or {}).get("perturbation"),
    )


def _write(system: ChatIYP, batch: tuple[str, str]) -> Op:
    start = time.perf_counter()
    failed = False
    try:
        for query in batch:
            system.run_cypher(query)
    except CypherError:
        failed = True
    end = time.perf_counter()
    return Op("write", (end - start) * 1000.0, cypher=" ; ".join(batch), failed=failed,
              start=start, end=end)


def _drive_asks(system: ChatIYP, sweeps, writes=None,
                on_ask=None) -> tuple[list[Op], list[tuple[int, float, float]]]:
    """Closed loop, one client: every sweep in order, writes interleaved.
    Returns the ops and each sweep's (asks, start, end)."""
    ops: list[Op] = []
    pending = iter(writes or ())
    rounds: list[tuple[int, float, float]] = []
    asked = 0
    for questions in sweeps:
        start = time.perf_counter()
        if writes is None:
            system.answer_cache.clear()
        after_write = False
        for question in questions:
            op = _ask(system, question) if on_ask is None else on_ask(question)
            op.after_write = after_write
            after_write = False
            ops.append(op)
            asked += 1
            if writes is not None and asked % WRITE_EVERY == 0:
                batch = next(pending, None)
                if batch is not None:
                    ops.append(_write(system, batch))
                    after_write = True
        rounds.append((len(questions), start, time.perf_counter()))
    return ops, rounds


def _pace(pacer: Pacer, ops: list[Op], rounds) -> list[tuple[int, float]]:
    """Set the ops' wall and reference times from the pacer's samples;
    return each (operations, start, end) round as (operations, reference
    seconds)."""
    for op in ops:
        op.latency_ms = pacer.measured(op.start, op.end) * 1000.0
        op.ref_ms = pacer.reference(op.start, op.end) * 1000.0
    return [(count, pacer.reference(start, end)) for count, start, end in rounds]


def _chatiyp_counters(system: ChatIYP) -> dict:
    snapshot = system.serving_snapshot()
    counters = {f"compile:{k}": v for k, v in snapshot["compile"].items()}
    counters.update({f"csr:{k}": v for k, v in snapshot["csr"].items()})
    cache = snapshot["cache"] or {}
    counters.update({f"cache:{k}": cache.get(k, 0) for k in ("hits", "misses", "evictions")})
    counters["breaker:trips"] = (snapshot["breaker"] or {}).get("trips", 0)
    counters["inflight:coalesced"] = (snapshot["inflight"] or {}).get("coalesced", 0)
    return counters


def _delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


# -- per-layer metrics ------------------------------------------------------


def _cypher_layer(ops: list[Op], counters: dict, executions: int) -> dict:
    """``cypher.*`` numbers every workload can give without tracing."""
    classes = Counter(op.observed for op in ops if isinstance(op.observed, str))
    first_seen, seen = 0, set()
    rows = 0
    for op in ops:
        if op.kind == "write" or not op.executed:
            continue
        if op.cypher not in seen:
            seen.add(op.cypher)
            first_seen += 1
        if isinstance(op.observed, checks.Rows):
            rows += op.observed.count
    compiled = counters.get("compile:compile.compiled", 0)
    cache_hits = counters.get("compile:compile.cache_hits", 0)
    overruns = [op.latency_ms - DEADLINE_MS for op in ops if op.kind != "write"]
    runtime = sum(n for cls, n in classes.items() if cls not in
                  ("CypherSyntaxError", checks.DEADLINE, "ResourceExhausted"))
    return {
        "cypher.error.syntax": classes.get("CypherSyntaxError", 0),
        "cypher.error.runtime": runtime,
        "cypher.error.deadline": classes.get(checks.DEADLINE, 0),
        "cypher.error.budget": classes.get("ResourceExhausted", 0),
        "cypher.rows_returned": rows,
        "cypher.fastpath_share": _share(counters.get("compile:compile.fastpath_hits", 0),
                                        executions),
        "cypher.compile.cache_hit_share": _share(cache_hits, cache_hits + compiled),
        "cypher.first_seen_share": _share(first_seen, executions),
        "cypher.deadline_overrun_max_ms": max([0.0, *overruns]),
        "graph.csr.builds": counters.get("csr:csr.builds", 0),
        "graph.csr.invalidations": counters.get("csr:csr.invalidations", 0),
    }


def _ask_layers(ops: list[Op], counters: dict) -> dict:
    """Per-layer numbers read from ask responses and public counters."""
    asks = [op for op in ops if op.kind == "ask"]
    executed = [op for op in asks if not op.cache_hit and not op.coalesced]
    translated = [op for op in executed if op.cypher is not None]
    writes = [op.latency_ms for op in ops if op.kind == "write"]
    hits = counters.get("cache:hits", 0)
    lookups = hits + counters.get("cache:misses", 0)
    metrics = _cypher_layer(ops, counters, len(translated))
    metrics.update({
        "llm.text2cypher.translated_share": _share(len(translated), len(executed)),
        "llm.text2cypher.perturbed_share": _share(
            sum(1 for op in translated if op.perturbation), len(translated)),
        "rag.route.vector_share": _share(sum(1 for op in asks if op.route == "vector"),
                                         len(asks)),
        "serving.cache.hit_share": _share(hits, lookups),
        "serving.cache.evictions": counters.get("cache:evictions", 0),
        "serving.singleflight.coalesced": counters.get("inflight:coalesced", 0),
        "serving.degraded_share": _share(sum(1 for op in asks if op.failed), len(asks)),
        "serving.breaker.opens": counters.get("breaker:trips", 0),
        "graph.write.p50_ms": percentile(writes, 0.5),
        "graph.read_after_write.p50_ms": percentile(
            [op.latency_ms for op in asks if op.after_write], 0.5),
    })
    return metrics


def _span_layers(recorder: SpanRecorder, asks: int, candidates: list[int]) -> dict:
    """Busy and self time per layer from a traced run."""
    selfs = self_times(recorder.spans)
    inclusive: dict[str, list[float]] = defaultdict(list)
    for span in recorder.spans:
        inclusive[span.name].append(span.ms)
    metrics = {}
    for task in ("text2cypher", "rerank", "answer"):
        times = inclusive.get(f"llm.{task}", [])
        metrics[f"llm.{task}.calls"] = len(times)
        metrics[f"llm.{task}.ms"] = _mean(times)
    for stage in ("symbolic", "routing", "rerank", "synthesis"):
        metrics[f"rag.{stage}.self_ms"] = _share(sum(selfs.get(f"rag.{stage}", [])), asks)
        metrics[f"rag.{stage}.p99_ms"] = percentile(inclusive.get(f"rag.{stage}", []), 0.99)
    metrics["rag.rerank.candidates_per_ask"] = _share(sum(candidates), asks)
    for name in ("embed.search", "cypher.execute"):
        times = inclusive.get(name, [])
        metrics[f"{name}.calls"] = len(times)
        metrics[f"{name}.ms"] = _mean(times)
    metrics["cypher.execute.p99_ms"] = percentile(inclusive.get("cypher.execute", []), 0.99)
    roots = inclusive.get("ask", [])
    metrics["trace.covered_share"] = 1.0 - _share(sum(selfs.get("ask", [])), sum(roots))
    return metrics


#: operators whose rows and self time the traced run reports
PROFILED_OPERATORS = (
    "LabelScan", "HashLookup", "IndexOrderedScan", "Expand", "VarLengthExpand",
    "ShortestPath", "Match", "Filter", "FilterProject", "Project", "Aggregate",
    "Distinct", "Sort", "TopK", "ProduceResults",
)


def _operator_layers(store, queries) -> dict:
    """Replay each distinct query profiled on a fresh engine over ``store``."""
    engine = CypherEngine(store)
    rows: Counter = Counter()
    self_ms: Counter = Counter()
    returned = 0

    def walk(node):
        rows[node["operator"]] += int(node.get("rows", 0))
        self_ms[node["operator"]] += float(node.get("self_time_ms", 0.0))
        for child in node.get("children", ()):
            walk(child)

    for query in sorted(set(queries)):
        try:
            result = engine.execute(query, profile=True)
        except CypherError:
            continue
        returned += len(result.records)
        if result.profile is not None:
            walk(result.profile)
    metrics = {}
    for name in PROFILED_OPERATORS:
        metrics[f"cypher.op.{name}.rows"] = rows.get(name, 0)
        metrics[f"cypher.op.{name}.ms"] = self_ms.get(name, 0.0)
    metrics["cypher.rows_examined_per_row"] = _share(sum(rows.values()), returned)
    return metrics


def _instrumented_chatiyp(size: str, recorder: SpanRecorder, candidates: list[int]) -> ChatIYP:
    system, _ = _build_chatiyp(size, observers=[StageSpans(recorder)])
    instrument_chatiyp(system, recorder)
    rerank = system.pipeline.reranker.rerank

    def counted(query, nodes, *args, **kwargs):
        candidates.append(len(nodes))
        return rerank(query, nodes, *args, **kwargs)

    system.pipeline.reranker.rerank = counted
    return system


def _traced_asks(size, warmup, sweeps, writes, spans_path) -> tuple[dict, list]:
    """Repeat the first sweeps of an ask workload, warm-up sweep first, on
    an instrumented system."""
    sweeps = sweeps[:TRACED_SWEEPS]
    recorder = SpanRecorder()
    candidates: list[int] = []
    system = _instrumented_chatiyp(size, recorder, candidates)
    _drive_asks(system, [warmup])
    recorder.spans.clear()
    candidates.clear()
    requests = itertools.count(1)

    def spanned_ask(question):
        with recorder.span("ask", request=next(requests)):
            return _ask(system, question)

    with Pacer() as pacer:
        ops, rounds = _drive_asks(system, sweeps, writes, on_ask=spanned_ask)
    rounds = _pace(pacer, ops, rounds)
    asks = sum(1 for op in ops if op.kind == "ask")
    metrics = _span_layers(recorder, asks, candidates)
    metrics.update(_operator_layers(system.store, [op.cypher for op in ops
                                                   if op.kind == "ask" and op.cypher]))
    recorder.write(spans_path)
    return metrics, rounds


# -- workloads --------------------------------------------------------------


@dataclass
class Run:
    """What a workload hands to the report."""

    ops: list[Op]
    #: (operations, reference seconds) of each round: a sweep or the
    #: replay's pass; the open loop's recorded window (successful requests
    #: only) in wall seconds
    rounds: list[tuple[int, float]]
    setup: dict
    rss_mb: float
    layers: dict
    check: checks.CheckReport
    #: question -> its first answer's rows equal the gold rows.  Counted
    #: per distinct question (the open loop: every question of its pool), so
    #: a popular question's Zipf weight does not swing the share.
    exec_match: dict[str, bool]

    @property
    def total_s(self) -> float:
        return sum(seconds for _, seconds in self.rounds)


def _rate(rounds) -> float:
    """Operations per second over (operations, seconds) rounds."""
    return sum(count for count, _ in rounds) / sum(seconds for _, seconds in rounds)


def draw_inputs(workload: str, seed: int, scale: Scale) -> dict:
    """The graph-dependent inputs of one run, as JSON-ready lists.

    Drawn on graph copies of their own, so no input generation touches the
    system under test.
    """
    medium = generate_iyp(IYPConfig.medium(seed=DATASET_SEED))
    gold = inputs.gold_set(medium)
    if workload == "cypher_replay_large":
        return _replay_items(gold, seed, scale.limit)
    translate = inputs.translator(medium, served_config())
    if workload == "served_open_loop":
        pool = [question for sweep_seed in (seed + 200, seed + 201, seed + 202)
                for question in inputs.sweep(gold, medium, translate, sweep_seed)]
        # Popularity is the seed's too: pool position is Zipf rank.
        random.Random(f"layout:{seed}").shuffle(pool)
        return {"pool": [astuple(question) for question in pool[:scale.limit]]}
    first = seed if workload == "ask_cold_mix" else seed + 100

    def ordered(sweep_seed: int) -> list:
        questions = inputs.sweep(gold, medium, translate, sweep_seed)
        random.Random(f"order:{sweep_seed}").shuffle(questions)
        return [astuple(question) for question in questions[:scale.limit]]

    sweeps = [ordered(sweep_seed) for sweep_seed in range(first, first + scale.rounds(workload))]
    drawn = {"warmup": ordered(first + WARMUP_SWEEP_OFFSET), "sweeps": sweeps}
    if workload == "graph_refresh":
        asks = sum(len(questions) for questions in sweeps)
        drawn["writes"] = inputs.write_batches(medium, seed, asks // WRITE_EVERY)
    return drawn


def _replay_items(gold, seed: int, limit: Optional[int]) -> dict:
    """Gold and generated Cypher of one sweep drawn from the large graph,
    and the gold Cypher of another sweep for the warm-up."""
    large = generate_iyp(IYPConfig.large(seed=DATASET_SEED))
    translate = inputs.translator(large, served_config("large"))
    warmup = inputs.sweep(gold, large, translate, seed + WARMUP_SWEEP_OFFSET, gold_graph=False)
    order = random.Random(f"order:{seed}")
    questions = inputs.sweep(gold, large, translate, seed, gold_graph=False)
    order.shuffle(questions)
    if limit is not None:
        questions = questions[: limit // 2]  # a gold and a generated query each
    items = []
    for question in questions:
        items.append((astuple(question), question.gold_cypher, True))
        generated = translate(question.text).cypher
        if generated:
            items.append((astuple(question), generated, False))
    order.shuffle(items)
    return {"warmup": [question.gold_cypher for question in warmup[:limit]], "items": items}


def _inputs(workload: str, seed: int, scale: Scale) -> dict:
    """:func:`draw_inputs` in a child process: the graph copies and the
    translator cache behind the inputs never count in this process's RSS."""
    command = [sys.executable, str(Path(__file__).with_name("run.py")), "--draw-inputs",
               "--workload", workload, "--seed", str(seed), "--seconds", str(scale.seconds)]
    if scale.smoke:
        command.append("--smoke")
    drawn = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    return json.loads(drawn.stdout)


def _questions(rows) -> list[inputs.Question]:
    return [inputs.Question(*row) for row in rows]


def _check_asks(ops: list[Op], reference: checks.Reference, report: checks.CheckReport,
                matches: dict[str, bool], apply_write=None) -> None:
    """Compare every ask against the interpreter, in order; score gold rows."""
    for op in ops:
        if op.kind == "write":
            if apply_write is not None:
                apply_write(op)
            continue
        if op.cypher is not None and op.observed is not None:
            report.compare(op.cypher, op.observed, reference.outcome(op.cypher))
        gold_rows = reference.outcome(op.gold) if op.gold else None
        matches.setdefault(op.question, isinstance(op.observed, checks.Rows)
                           and isinstance(gold_rows, checks.Rows)
                           and checks.same(op.gold, op.observed, gold_rows))


def ask_cold_mix(seed: int, scale: Scale, trace_path: Optional[Path]) -> Run:
    """Closed loop, one client, cold answer cache per sweep, medium graph."""
    drawn = _inputs("ask_cold_mix", seed, scale)
    warmup = _questions(drawn["warmup"])
    sweeps = [_questions(rows) for rows in drawn["sweeps"]]
    system, setup = _timed_builds(lambda: _build_chatiyp("medium"), scale.setups("medium"))
    _drive_asks(system, [warmup])
    before = _chatiyp_counters(system)
    _reset_peak_rss()
    with Pacer() as pacer:
        ops, rounds = _drive_asks(system, sweeps)
    counters = _delta(before, _chatiyp_counters(system))
    rss = _peak_rss_mb()
    rounds = _pace(pacer, ops, rounds)
    layers = _ask_layers(ops, counters)
    if trace_path is not None:
        span_layers, traced = _traced_asks("medium", warmup, sweeps, None, trace_path)
        layers.update(span_layers)
        layers["trace.overhead_share"] = _overhead(rounds[:len(traced)], traced)
    report, matches = checks.CheckReport(), {}
    _check_asks(ops, checks.Reference(system.store), report, matches)
    return Run(ops, rounds, setup, rss, layers, report, matches)


def graph_refresh(seed: int, scale: Scale, trace_path: Optional[Path]) -> Run:
    """Asks on a private medium graph with a write batch every 10 asks."""
    drawn = _inputs("graph_refresh", seed, scale)
    warmup, writes = _questions(drawn["warmup"]), drawn["writes"]
    sweeps = [_questions(rows) for rows in drawn["sweeps"]]
    system, setup = _timed_builds(lambda: _build_chatiyp("medium"), scale.setups("medium"))
    _drive_asks(system, [warmup])
    before = _chatiyp_counters(system)
    _reset_peak_rss()
    with Pacer() as pacer:
        ops, rounds = _drive_asks(system, sweeps, writes)
    counters = _delta(before, _chatiyp_counters(system))
    rss = _peak_rss_mb()
    rounds = _pace(pacer, ops, rounds)
    layers = _ask_layers(ops, counters)
    if trace_path is not None:
        span_layers, traced = _traced_asks("medium", warmup, sweeps, writes, trace_path)
        layers.update(span_layers)
        layers["trace.overhead_share"] = _overhead(rounds[:len(traced)], traced)
    # Replay the run on a fresh copy of the graph: every ask is checked
    # against the interpreter at the graph version it saw, then the final
    # graph is checked query by query against the system's own engine.
    report, matches = checks.CheckReport(), {}
    reference = checks.Reference(generate_iyp(IYPConfig.medium(seed=DATASET_SEED)).store)

    def apply_write(op: Op) -> None:
        for query in op.cypher.split(" ; "):
            reference.engine.execute(query)

    _check_asks(ops, reference, report, matches, apply_write)
    for query in sorted({op.cypher for op in ops if op.kind == "ask" and op.cypher}):
        try:
            final = checks.rows_of(system.engine.execute(query))
        except CypherError as exc:
            final = type(exc).__name__
        report.compare(query, final, reference.outcome(query))
    return Run(ops, rounds, setup, rss, layers, report, matches)


def _build_engine() -> tuple:
    start = time.perf_counter()
    dataset = generate_iyp(IYPConfig.large(seed=DATASET_SEED))
    built = time.perf_counter()
    engine = CypherEngine(dataset.store)
    ready = time.perf_counter()
    engine.execute(WARMUP_QUERY, deadline=Deadline.start(DEADLINE_MS))
    return (dataset, engine), (start, built, ready, time.perf_counter())


def _replay_pass(store, items, execute=None) -> tuple[list[Op], list[tuple], dict]:
    """One paced pass over ``items`` on a fresh engine (parse and plan
    paid again).  Returns the ops, the pass as one (queries, reference
    seconds) round, and the engine's compile counters."""
    engine = CypherEngine(store)
    run = execute(engine) if execute is not None else engine.execute
    ops: list[Op] = []
    with Pacer() as pacer:
        start = time.perf_counter()
        for question, query, is_gold in items:
            began = time.perf_counter()
            try:
                observed = checks.rows_of(run(query, deadline=Deadline.start(DEADLINE_MS)))
            except CypherError as exc:
                observed = type(exc).__name__
            ended = time.perf_counter()
            ops.append(Op(
                "query", (ended - began) * 1000.0, question.text, cypher=query,
                gold=question.gold_cypher,
                outcome="gold" if is_gold else question.outcome, observed=observed,
                answer=checks.describe(observed),
                failed=observed in (checks.DEADLINE, "ResourceExhausted"),
                start=began, end=ended,
            ))
        rounds = [(len(ops), start, time.perf_counter())]
    rounds = _pace(pacer, ops, rounds)
    return ops, rounds, {f"compile:{k}": v for k, v in engine.compile_metrics().items()}


def cypher_replay_large(seed: int, scale: Scale, trace_path: Optional[Path]) -> Run:
    """Gold and generated Cypher of one stratified sweep on the large graph,
    one pass on a fresh engine after a warm-up pass over other gold queries."""
    drawn = _inputs("cypher_replay_large", seed, scale)
    items = [(inputs.Question(*question), query, is_gold)
             for question, query, is_gold in drawn["items"]]
    (dataset, _), setup = _timed_builds(_build_engine, scale.setups("large"))
    store = dataset.store
    engine = CypherEngine(store)
    for query in drawn["warmup"]:
        engine.execute(query, deadline=Deadline.start(DEADLINE_MS))
    del engine
    csr_before = {f"csr:{k}": v for k, v in store.csr_metrics().items()}
    _reset_peak_rss()
    ops, rounds, counters = _replay_pass(store, items)
    counters.update(_delta(csr_before, {f"csr:{k}": v for k, v in store.csr_metrics().items()}))
    rss = _peak_rss_mb()
    layers = _cypher_layer(ops, counters, len(ops))
    if trace_path is not None:
        recorder = SpanRecorder()

        def spanned(engine):
            def execute(query, **kwargs):
                with recorder.span("cypher.execute"):
                    return engine.execute(query, **kwargs)
            return execute

        traced_items = items[:len(items) // TRACED_REPLAY_PART]
        traced_ops, traced_rounds, _ = _replay_pass(store, traced_items, spanned)
        times = [span.ms for span in recorder.spans]
        layers["cypher.execute.calls"] = len(times)
        layers["cypher.execute.ms"] = _mean(times)
        layers["cypher.execute.p99_ms"] = percentile(times, 0.99)
        layers["trace.covered_share"] = _share(
            sum(times), (traced_ops[-1].end - traced_ops[0].start) * 1000.0)
        layers.update(_operator_layers(store, [query for _, query, _ in traced_items]))
        recorder.write(trace_path)
        # Both sides over the same queries, each op's reference time summed.
        layers["trace.overhead_share"] = _overhead(
            [(len(traced_ops), sum(op.ref_ms for op in ops[:len(traced_ops)]) / 1000.0)],
            [(len(traced_ops), sum(op.ref_ms for op in traced_ops) / 1000.0)])
    # Exec match: a generated query's rows against its twin gold query's rows.
    gold_rows = {(op.question, op.cypher): op.observed for op in ops if op.outcome == "gold"}
    matches = {}
    for op in ops:
        if op.outcome != "gold":
            expected = gold_rows.get((op.question, op.gold))
            matches.setdefault(op.question, isinstance(op.observed, checks.Rows)
                               and isinstance(expected, checks.Rows)
                               and checks.same(op.gold, op.observed, expected))
    report = checks.CheckReport()
    reference = checks.Reference(store)
    observed = {op.cypher: op.observed for op in ops}
    generated = sorted({op.cypher for op in ops if op.outcome != "gold"})
    for query in random.Random(f"check:{seed}").sample(
            generated, min(LARGE_CHECK_SAMPLE, len(generated))):
        report.compare(query, observed[query], reference.outcome(query))
    return Run(ops, rounds, setup, rss, layers, report, matches)


# -- served open loop ---------------------------------------------------------


class _Server:
    """A ``python -m repro.server`` subprocess on an ephemeral port."""

    def __init__(self, timeout_s: float = 120.0) -> None:
        src = Path(repro.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", *SERVER_ARGS],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
        except BaseException:
            self.close()
            raise

    def request(self, method: str, path: str, payload=None, timeout: float = 60.0):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            body = json.dumps(payload) if payload is not None else None
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def ask(self, question: inputs.Question) -> Op:
        """One untimed ask, for answer scoring."""
        try:
            status, body = self.request("POST", "/ask", {"question": question.text})
        except (OSError, http.client.HTTPException) as exc:
            status, body = 0, str(exc).encode()
        now = time.perf_counter()
        return _response_op(question, now, now, now, status, body)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _build_server() -> tuple:
    start = time.perf_counter()
    server = _Server()
    ready = time.perf_counter()
    try:
        for question in WARMUP_QUESTIONS:
            status, _ = server.request("POST", "/ask", {"question": question})
            if status != 200:
                raise RuntimeError(f"warm-up ask answered {status}")
    except BaseException:
        server.close()
        raise
    # The server generates its dataset and starts as one phase.
    return server, (start, start, ready, time.perf_counter())


def _load(server: _Server, pool, schedule) -> list[tuple]:
    """Open loop: send each request at its due time from a few client threads."""
    lock = threading.Lock()
    pending = iter(enumerate(schedule))
    results: list = [None] * len(schedule)
    origin = time.perf_counter() + 0.05

    def client():
        while True:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            index, (due, pick) = item
            due_at = origin + due
            delay = due_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                status, body = server.request("POST", "/ask", {"question": pool[pick].text})
            except (OSError, http.client.HTTPException) as exc:
                status, body = 0, str(exc).encode()
            results[index] = (due, due_at, sent, time.perf_counter(), status, body, pick)

    threads = [threading.Thread(target=client) for _ in range(OPEN_LOOP_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def _response_op(question: inputs.Question, due_at, sent, done, status, body) -> Op:
    op = Op("ask", (done - due_at) * 1000.0, question.text, gold=question.gold_cypher,
            outcome=question.outcome, late_ms=(sent - due_at) * 1000.0,
            server_ms=(done - sent) * 1000.0, response_bytes=len(body))
    if status != 200:
        op.failed = True
        op.answer = f"HTTP {status}"
        return op
    payload = json.loads(body)
    diagnostics = payload.get("diagnostics") or {}
    rows = payload.get("rows")
    op.cypher = payload.get("cypher")
    op.observed = _observed(op.cypher, diagnostics.get("symbolic_error"), None if rows is None
                            else checks.summarize([list(row.values()) for row in rows]))
    op.answer = payload.get("answer", "")
    op.route = payload.get("retrieval_source", "")
    op.cache_hit = bool(diagnostics.get("cache_hit"))
    op.coalesced = bool(diagnostics.get("coalesced"))
    op.stage_ms = dict(diagnostics.get("stage_timings") or {})
    op.failed = bool(diagnostics.get("degraded")) or op.observed == checks.DEADLINE
    return op


def _server_layers(ops: list[Op], metrics: dict) -> dict:
    serving = metrics.get("serving", {})
    counters = {f"compile:{k}": v for k, v in (serving.get("compile") or {}).items()}
    counters.update({f"csr:{k}": v for k, v in (serving.get("csr") or {}).items()})
    executed = [op for op in ops if op.executed]
    layers = _cypher_layer(ops, counters, len(executed))
    asks = [op for op in ops if op.kind == "ask"]
    fresh = [op for op in asks if op.stage_ms and not op.cache_hit and not op.coalesced]
    overhead = [op.server_ms - sum(op.stage_ms.values()) for op in fresh]
    kilobytes = [op.response_bytes / 1024.0 for op in asks]
    for stage in ("symbolic", "routing", "rerank", "synthesis"):
        times = [op.stage_ms.get(stage, 0.0) for op in fresh]
        layers[f"rag.{stage}.self_ms"] = _mean(times)
        layers[f"rag.{stage}.p99_ms"] = percentile(times, 0.99)
    cache = serving.get("cache") or {}
    layers.update({
        "llm.text2cypher.translated_share": _share(
            sum(1 for op in fresh if op.cypher is not None), len(fresh)),
        "rag.route.vector_share": _share(sum(1 for op in asks if op.route == "vector"),
                                         len(asks)),
        "serving.cache.hit_share": _share(sum(1 for op in asks if op.cache_hit), len(asks)),
        "serving.cache.evictions": cache.get("evictions", 0),
        "serving.singleflight.coalesced": sum(1 for op in asks if op.coalesced),
        "serving.degraded_share": _share(sum(1 for op in asks if op.failed), len(asks)),
        "serving.breaker.opens": (serving.get("breaker") or {}).get("trips", 0),
        "serving.admission.shed": (serving.get("admission") or {}).get("shed", 0),
        "server.overhead_ms": percentile(overhead, 0.5),
        "server.response_kb.p50": percentile(kilobytes, 0.5),
        "server.response_kb.p99": percentile(kilobytes, 0.99),
        "loadgen.late_p99_ms": percentile([op.late_ms for op in asks], 0.99),
        "trace.covered_share": _share(sum(sum(op.stage_ms.values()) for op in fresh),
                                      sum(op.server_ms for op in fresh)),
    })
    return layers


def _response_spans(raw, ops: list[Op], path: Path) -> None:
    """Client-side request spans, with the server's stage timings laid out
    back to back inside each (the server records durations, not starts)."""
    recorder = SpanRecorder()
    for request, (entry, op) in enumerate(zip(raw, ops), start=1):
        _, _, sent, done, _, _, _ = entry
        root = request * 100
        recorder.spans.append(Span(root, None, "http.ask", sent, done, request))
        cursor = sent
        for index, (stage, ms) in enumerate(op.stage_ms.items(), start=1):
            end = cursor + ms / 1000.0
            recorder.spans.append(Span(root + index, root, f"rag.{stage}", cursor, end, request))
            cursor = end
    recorder.write(path)


def served_open_loop(seed: int, scale: Scale, trace_path: Optional[Path]) -> Run:
    """Seeded Poisson arrivals against a real ``--serve`` subprocess."""
    pool = _questions(_inputs("served_open_loop", seed, scale)["pool"])
    seconds = 3.0 if scale.smoke else scale.seconds
    warmup = 0.5 if scale.smoke else OPEN_LOOP_WARMUP_S
    arrivals = inputs.poisson_arrivals(seed, OPEN_LOOP_RATE, warmup + seconds)
    draws = inputs.zipf_draws(seed, len(arrivals), len(pool), ZIPF_S)
    server, setup = _timed_builds(_build_server, scale.setups("server"), paced=False)
    try:
        _reset_peak_rss(server.proc.pid)
        raw = _load(server, pool, list(zip(arrivals, draws)))
        _, metrics_body = server.request("GET", "/metrics")
        rss = _peak_rss_mb(server.proc.pid)
        # Answers are scored over the whole pool: the questions the Zipf
        # draw never reached are asked once each, untimed.
        asked = {entry[6] for entry in raw}
        unasked = [server.ask(question) for pick, question in enumerate(pool)
                   if pick not in asked]
    finally:
        server.close()
    answered = [_response_op(pool[entry[6]], *entry[1:6]) for entry in raw]
    recorded = [entry for entry in raw if entry[0] >= warmup]
    ops = [op for op, entry in zip(answered, raw) if entry[0] >= warmup]
    layers = _server_layers(ops, json.loads(metrics_body))
    layers["trace.overhead_share"] = 0.0
    if trace_path is not None:
        _response_spans(recorded, ops, trace_path)
    report, matches = checks.CheckReport(), {}
    reference = checks.Reference(generate_iyp(IYPConfig.medium(seed=DATASET_SEED)).store)
    _check_asks(answered + unasked, reference, report, matches)
    # Throughput counts the time to drain the schedule: a backlog that
    # outlasts the last arrival lowers it below the offered rate.
    window = max(entry[3] for entry in recorded) - min(entry[1] for entry in recorded)
    succeeded = sum(1 for op in ops if not op.failed)
    return Run(ops, [(succeeded, window)], setup, rss, layers, report, matches)


def _overhead(untraced: list, traced: list) -> float:
    """1 - traced / untraced rate over (operations, seconds) rounds."""
    return 1.0 - _rate(traced) / _rate(untraced)


WORKLOADS: dict[str, Callable[[int, Scale, Optional[Path]], Run]] = {
    "ask_cold_mix": ask_cold_mix,
    "cypher_replay_large": cypher_replay_large,
    "graph_refresh": graph_refresh,
    "served_open_loop": served_open_loop,
}


# -- report -------------------------------------------------------------------


def report(run: Run) -> dict:
    """End-to-end metrics, per-layer metrics and the slow-operation view."""
    timed = [op for op in run.ops if op.kind != "write"]
    latencies = [op.ref_ms for op in timed]
    attempted = len(timed)
    failed = sum(1 for op in timed if op.failed)
    overran = sum(1 for op in timed if op.latency_ms > OVERRUN_FACTOR * DEADLINE_MS)
    end_to_end = {
        "setup_s": run.setup["total_s"],
        "p50_ms": percentile(latencies, 0.50),
        "ops_per_s": _rate(run.rounds),
        "success_share": 1.0 - _share(failed, attempted),
        "in_deadline_share": 1.0 - _share(overran, attempted),
        "exec_match_share": _share(sum(run.exec_match.values()), len(run.exec_match)),
        "rss_mb": run.rss_mb,
    }
    # The replay's p99 is set by the few slow queries its seed draws (a
    # quartile spread of 0.29 over 10 seeds), so the tail is reported
    # beside the layers instead of being gated.
    layers = {**run.layers, "p99_ms": percentile(latencies, 0.99)}
    for key in ("dataset_s", "system_s", "warmup_s"):
        layers[f"setup.{key}"] = run.setup[key]
    total_ms = run.total_s * 1000.0
    slowest = sorted(timed, key=lambda op: op.ref_ms, reverse=True)[:10]
    return {
        "correct": run.check.ok,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": layers,
        # The wall-clock twins of the reference timings, for reading only.
        "wall": {"p50_ms": percentile([op.latency_ms for op in timed], 0.50),
                 "p99_ms": percentile([op.latency_ms for op in timed], 0.99)},
        "slowest": [
            {"question": op.question, "cypher": op.cypher, "outcome": op.outcome,
             "latency_ms": round(op.latency_ms, 3), "ref_ms": round(op.ref_ms, 3),
             "time_share": round(_share(op.ref_ms, total_ms), 4)}
            for op in slowest
        ],
        "digest": checks.digest((op.question, op.cypher, op.answer) for op in run.ops),
        "checks": run.check.to_dict(),
    }
