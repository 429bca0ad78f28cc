"""RetrieverQueryEngine — runs the RAG pipeline of Figure 1.

Flow, exactly as the paper describes:

1. the **TextToCypherRetriever** translates and executes a graph query;
2. when symbolic translation fails, or the query returns no rows, the
   **VectorContextRetriever** fetches semantically nearby node
   descriptions instead;
3. the **LLMReranker** re-scores the retrieval candidates;
4. the **ResponseSynthesizer** generates the answer, returning the refined
   Cypher query alongside for transparency.

:meth:`RetrieverQueryEngine.query` runs these as four steps in a fixed
order — ``symbolic``, ``routing``, ``rerank``, ``synthesis`` — on one
mutable :class:`QueryContext`.  Each step fires the ``stage.<name>`` fault
site, is timed into ``diagnostics["stage_timings"]``, and is reported to
the attached :class:`~repro.rag.observer.PipelineObserver` hooks.  The
route follows from the retrievers the engine was given: without a
text-to-Cypher retriever the symbolic step is omitted and every question
goes to vector retrieval, and without a vector retriever there is no
fallback.  Expected failures never raise: a step records the typed
:mod:`~repro.rag.errors` instance on ``QueryContext.error``, and a blown
request deadline degrades the remaining steps instead of hanging.
Retriever-owned metadata is deep-copied before it enters the diagnostics,
so callers can mutate a response's diagnostics without corrupting
retriever or LLM internals.
"""

from __future__ import annotations

import copy
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from ..cypher.result import ResultSet, render_value
from ..faults import fault_point
from ..serving.breaker import CircuitBreaker
from ..serving.deadline import Deadline
from ..serving.retry import RetryPolicy
from .errors import (
    CircuitOpen,
    DeadlineExceeded,
    EmptyResult,
    ExecutionError,
    PipelineError,
    classify_symbolic_failure,
)
from .observer import PipelineObserver
from .reranker import LLMReranker
from .synthesizer import ResponseSynthesizer
from .text2cypher_retriever import TextToCypherRetriever
from .types import NodeWithScore, RetrievalResult
from .vector_retriever import VectorContextRetriever

__all__ = ["PipelineResponse", "QueryContext", "RetrieverQueryEngine"]

logger = logging.getLogger("repro.rag.pipeline")

#: how many rows/snippets a degraded partial answer may surface
_PARTIAL_LIMIT = 3


@dataclass
class PipelineResponse:
    """The pipeline's output: answer text plus full provenance."""

    answer: str
    cypher: Optional[str]
    retrieval_source: str
    context: list[NodeWithScore] = field(default_factory=list)
    result: Optional[ResultSet] = None
    diagnostics: dict[str, Any] = field(default_factory=dict)

    @property
    def used_fallback(self) -> bool:
        """True when the semantic fallback produced the context."""
        return self.retrieval_source == "vector"


@dataclass
class QueryContext:
    """Everything one question accumulates on its way through the steps.

    One per request; the steps fill it in place and observers receive it
    with every hook.
    """

    question: str
    #: raw output of the symbolic path (``None`` until produced)
    symbolic: Optional[RetrievalResult] = None
    #: the retrieval chosen by routing (feeds synthesis)
    retrieval: Optional[RetrievalResult] = None
    #: candidate context before reranking / surviving context after
    candidates: list[NodeWithScore] = field(default_factory=list)
    context: list[NodeWithScore] = field(default_factory=list)
    answer: Optional[str] = None
    source: str = ""
    cypher: Optional[str] = None
    result: Optional[ResultSet] = None
    #: first taxonomy error hit on the way (steps record, never raise)
    error: Optional[PipelineError] = None
    sparse: bool = False
    diagnostics: dict[str, Any] = field(default_factory=dict)
    #: per-step wall-clock timings (ms)
    timings: dict[str, float] = field(default_factory=dict)
    #: per-request time budget (``None`` = unbounded); steps check the
    #: remaining time and degrade gracefully once it is exhausted
    deadline: Optional[Deadline] = None

    @property
    def expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired

    def degrade(self, reason: str) -> None:
        """Append ``reason`` to ``diagnostics["degraded"]``.

        That list is the machine-readable record of every graceful-
        degradation decision a request hit (skipped steps, breaker
        reroutes, partial synthesis); callers surface it in API responses
        and count it in metrics.
        """
        degraded = self.diagnostics.setdefault("degraded", [])
        if reason not in degraded:
            degraded.append(reason)


class RetrieverQueryEngine:
    """Runs the retrieval pipeline for one question at a time."""

    def __init__(
        self,
        text2cypher: Optional[TextToCypherRetriever],
        vector: Optional[VectorContextRetriever] = None,
        reranker: Optional[LLMReranker] = None,
        synthesizer: Optional[ResponseSynthesizer] = None,
        observers: Iterable[PipelineObserver] = (),
        breaker: Optional[CircuitBreaker] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if synthesizer is None:
            raise ValueError("a ResponseSynthesizer is required")
        if text2cypher is None and vector is None:
            raise ValueError(
                "a TextToCypherRetriever or a VectorContextRetriever is required"
            )
        # Read per query, so swapping any of these on a live engine takes
        # effect from the next question on.
        self.text2cypher = text2cypher
        self.vector = vector
        self.reranker = reranker
        self.synthesizer = synthesizer
        self.observers = list(observers)
        # Serving hardening (all optional): a circuit breaker guarding the
        # symbolic path and a retry policy for the LLM-facing steps.
        self.breaker = breaker
        self.retry_policy = retry_policy

    def query(
        self, question: str, deadline: Optional[Deadline] = None
    ) -> PipelineResponse:
        """Run the full pipeline for one question.

        ``deadline`` (optional) is the request's remaining time budget; a
        blown budget degrades steps gracefully instead of hanging, with
        every degradation recorded under ``diagnostics["degraded"]``.
        """
        ctx = QueryContext(question=question, deadline=deadline)
        if self.text2cypher is not None:
            self._step("symbolic", self._symbolic, ctx)
        self._step("routing", self._route, ctx)
        self._step("rerank", self._rerank, ctx)
        self._step("synthesis", self._synthesize, ctx)
        diagnostics = dict(ctx.diagnostics)
        diagnostics["stage_timings"] = dict(ctx.timings)
        return PipelineResponse(
            answer=ctx.answer if ctx.answer is not None else "",
            cypher=ctx.cypher,
            retrieval_source=ctx.source,
            context=list(ctx.context),
            result=ctx.result,
            diagnostics=diagnostics,
        )

    # -- step execution ----------------------------------------------------

    def _step(
        self, name: str, step: Callable[[QueryContext], None], ctx: QueryContext
    ) -> None:
        """Run one step: fault site, observer hooks and timing around it."""
        # Fault-injection site ("stage.<name>"): latency between steps is
        # the cleanest way to drive deadline-degradation paths — sleeping
        # here burns budget without touching any step logic.
        fault_point(f"stage.{name}")
        self._emit("on_stage_start", name, ctx)
        error_before = ctx.error
        started = time.perf_counter()
        try:
            step(ctx)
        except Exception as exc:
            wrapped = PipelineError(f"{type(exc).__name__}: {exc}")
            self._emit("on_error", name, wrapped, ctx)
            raise
        elapsed_ms = round((time.perf_counter() - started) * 1000.0, 4)
        ctx.timings[name] = elapsed_ms
        if ctx.error is not None and ctx.error is not error_before:
            self._emit("on_error", name, ctx.error, ctx)
        self._emit("on_stage_end", name, ctx, elapsed_ms)

    def _emit(self, hook: str, *args: Any) -> None:
        for observer in self.observers:
            try:
                getattr(observer, hook)(*args)
            except Exception:  # noqa: BLE001 - observers must never break a query
                logger.warning(
                    "pipeline observer %s.%s failed", type(observer).__name__, hook,
                    exc_info=True,
                )

    # -- the four steps ----------------------------------------------------

    def _skip_symbolic(
        self, ctx: QueryContext, error: PipelineError, reason: str
    ) -> None:
        """Degrade: record ``error`` without attempting symbolic retrieval."""
        ctx.symbolic = RetrievalResult(source="text2cypher", error=error.kind)
        ctx.error = error
        ctx.sparse = True  # a skipped attempt has no rows
        ctx.source = ctx.symbolic.source
        ctx.diagnostics.update(
            symbolic_error=error.kind,
            fallback_used=False,
            error_class=error.to_dict(),
        )
        ctx.degrade(reason)

    def _symbolic(self, ctx: QueryContext) -> None:
        """Text-to-Cypher translation + execution (the symbolic path).

        A blown deadline skips translation entirely (recording
        :class:`DeadlineExceeded`, so routing degrades to the vector
        path).  The optional circuit breaker gates the attempt:
        execution-class failures of queries that parsed feed it, and while
        it is open every symbolic attempt is skipped with
        :class:`CircuitOpen` recorded.
        """
        if ctx.expired:
            return self._skip_symbolic(
                ctx,
                DeadlineExceeded("deadline exhausted before symbolic retrieval"),
                "symbolic_skipped_deadline",
            )
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            return self._skip_symbolic(
                ctx,
                CircuitOpen("symbolic circuit breaker is open"),
                "symbolic_skipped_breaker_open",
            )
        # The engine checks the deadline cooperatively as it produces rows.
        symbolic = self.text2cypher.retrieve(ctx.question, deadline=ctx.deadline)
        if symbolic.error is not None:
            logger.debug(
                "symbolic retrieval failed for %r: %s", ctx.question, symbolic.error
            )
        error = classify_symbolic_failure(symbolic)
        if breaker is not None:
            # Execution-class failures are infrastructure signals; a clean
            # run heals the breaker.  Translation misses, texts that fail to
            # parse and sparse results say nothing about engine health, so
            # they stay neutral.
            if isinstance(error, ExecutionError) and not error.unparsable:
                breaker.record_failure()
            elif error is None:
                breaker.record_success()
            else:
                breaker.record_neutral()
        # deep copy: diagnostics must be safe to mutate post-hoc without
        # reaching back into retriever/LLM-owned structures
        ctx.diagnostics.update(
            generation=copy.deepcopy(dict(symbolic.metadata)),
            symbolic_error=symbolic.error,
            fallback_used=False,
        )
        if error is not None:
            ctx.diagnostics["error_class"] = error.to_dict()
        ctx.symbolic = symbolic
        ctx.cypher = symbolic.cypher
        ctx.source = symbolic.source
        ctx.error = error
        ctx.sparse = isinstance(error, EmptyResult)

    def _route(self, ctx: QueryContext) -> None:
        """Pick the retrieval that feeds generation (the Figure-1 rule).

        The symbolic result is used when its query succeeded and returned
        rows; otherwise the vector retriever, when there is one, fetches
        semantically nearby node descriptions, and without one the answer
        comes from whatever the symbolic path has.  Without a symbolic
        path every question routes to the vector retriever.
        """
        symbolic = ctx.symbolic
        if symbolic is None:
            chosen = self.vector.retrieve(ctx.question)
            ctx.diagnostics["route"] = "vector-only"
        else:
            chosen = symbolic
            if not symbolic.succeeded or ctx.sparse:
                ctx.diagnostics["sparse"] = ctx.sparse
                if self.vector is not None:
                    logger.debug(
                        "falling back to vector retrieval for %r (sparse=%s)",
                        ctx.question,
                        ctx.sparse,
                    )
                    chosen = self.vector.retrieve(ctx.question)
                    ctx.diagnostics["fallback_used"] = True
            ctx.diagnostics["route"] = "symbolic-first"
            # the symbolic query is surfaced even when it failed, for transparency
            ctx.cypher = symbolic.cypher
            ctx.result = symbolic.result if chosen is symbolic else None
        ctx.retrieval = chosen
        ctx.candidates = list(chosen.nodes)
        ctx.source = chosen.source

    def _rerank(self, ctx: QueryContext) -> None:
        """LLM re-scoring of the routed candidates — one stage per query.

        The reranker makes one call per rerank of two or more candidates,
        none for zero or one, which passes through with its retrieval score.
        Reranking is the cheapest step to shed: on a blown deadline the
        candidates pass through untouched (recording
        ``rerank_skipped_deadline``), and transient reranker failures are
        retried under the optional retry policy.
        """
        reranker = self.reranker
        candidates = list(ctx.candidates)
        if reranker is None:
            ctx.context = candidates
        elif ctx.expired:
            ctx.context = candidates
            ctx.degrade("rerank_skipped_deadline")
        elif self.retry_policy is not None:
            ctx.context = self.retry_policy.run(
                reranker.rerank, ctx.question, candidates, deadline=ctx.deadline
            )
        else:
            ctx.context = reranker.rerank(ctx.question, candidates)

    def _synthesize(self, ctx: QueryContext) -> None:
        """Answer generation from the routed retrieval + surviving context.

        On a blown deadline the step degrades to a *partial answer* built
        directly from the structured rows / context snippets already in
        hand — no LLM call — and records ``synthesis_partial_deadline``.
        Transient synthesizer failures are retried under the optional
        retry policy.
        """
        if ctx.expired:
            ctx.answer = _partial_answer(ctx)
            ctx.degrade("synthesis_partial_deadline")
            return
        retrieval = ctx.retrieval or RetrievalResult(source=ctx.source)
        synthesize = self.synthesizer.synthesize
        if self.retry_policy is not None:
            ctx.answer = self.retry_policy.run(
                synthesize, ctx.question, retrieval, ctx.context, deadline=ctx.deadline
            )
        else:
            ctx.answer = synthesize(ctx.question, retrieval, ctx.context)


def _partial_answer(ctx: QueryContext) -> str:
    """Cheapest viable answer from whatever the pipeline gathered."""
    if ctx.result is not None and ctx.result.records:
        rows = [
            ", ".join(f"{key}: {render_value(value)}" for key, value in record.items())
            for record in ctx.result.records[:_PARTIAL_LIMIT]
        ]
        return "Partial answer (deadline exceeded): " + "; ".join(rows)
    snippets = [item.node.text for item in ctx.context[:_PARTIAL_LIMIT]]
    if not snippets:
        snippets = [item.node.text for item in ctx.candidates[:_PARTIAL_LIMIT]]
    if snippets:
        return "Partial answer (deadline exceeded): " + " ".join(snippets)
    return (
        "The request deadline was exceeded before an answer could be "
        "generated. Please retry with a larger budget."
    )
