"""Stage-execution kernel of the RAG pipeline.

The Figure-1 flow is decomposed into four composable stages —

``SymbolicRetrievalStage`` → ``FallbackRoutingStage`` → ``RerankStage``
→ ``SynthesisStage``

— each a :class:`Stage` transforming an immutable-ish :class:`QueryContext`
record.  Routing applies the paper's one rule: symbolic rows when the
generated query succeeded with rows, otherwise the vector retriever when
one is wired in; an engine without a symbolic path routes everything to
vector retrieval.  The :class:`StagePipeline` kernel runs the sequence,
times every stage, and notifies the attached
:class:`~repro.rag.observer.PipelineObserver` hooks around each one.
Stages never share mutable state: context evolution goes through
:meth:`QueryContext.evolve`, and retriever-owned metadata is deep-copied
before it enters the diagnostics, so callers can mutate a response's
diagnostics without corrupting retriever or LLM internals.
"""

from __future__ import annotations

import copy
import logging
import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional, Protocol, runtime_checkable

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
from .observer import PipelineObserver, _ObserverFanout
from .reranker import LLMReranker
from .retriever import Retriever
from .synthesizer import ResponseSynthesizer
from .text2cypher_retriever import TextToCypherRetriever
from .types import NodeWithScore, RetrievalResult

__all__ = [
    "QueryContext",
    "Stage",
    "SymbolicRetrievalStage",
    "FallbackRoutingStage",
    "RerankStage",
    "SynthesisStage",
    "StagePipeline",
    "mark_degraded",
]

# Stable logger name: pipeline events stayed on "repro.rag.pipeline" when the
# engine was split into stages, so existing log-capture consumers keep working.
logger = logging.getLogger("repro.rag.pipeline")


def mark_degraded(diagnostics: dict[str, Any], reason: str) -> dict[str, Any]:
    """Return ``diagnostics`` with ``reason`` appended to the degraded list.

    ``diagnostics["degraded"]`` is the machine-readable record of every
    graceful-degradation decision a request hit (skipped stages, breaker
    reroutes, partial synthesis); callers surface it in API responses and
    count it in metrics.
    """
    degraded = list(diagnostics.get("degraded", ()))
    if reason not in degraded:
        degraded.append(reason)
    return {**diagnostics, "degraded": degraded}


@dataclass(frozen=True)
class QueryContext:
    """Everything one question accumulates on its way through the stages.

    Frozen: stages return an evolved copy via :meth:`evolve` instead of
    mutating in place, so an observer always sees a consistent snapshot
    and a stage cannot leak partial writes into its successors.
    """

    question: str
    #: raw outputs of the two retrieval paths (``None`` until produced)
    symbolic: Optional[RetrievalResult] = None
    semantic: Optional[RetrievalResult] = None
    #: the retrieval chosen by routing (feeds synthesis)
    retrieval: Optional[RetrievalResult] = None
    #: candidate context before reranking / surviving context after
    candidates: list[NodeWithScore] = field(default_factory=list)
    context: list[NodeWithScore] = field(default_factory=list)
    answer: Optional[str] = None
    source: str = ""
    cypher: Optional[str] = None
    result: Optional[ResultSet] = None
    #: first taxonomy error hit on the way (stages record, never raise)
    error: Optional[PipelineError] = None
    sparse: bool = False
    fallback_used: bool = False
    diagnostics: dict[str, Any] = field(default_factory=dict)
    #: per-stage wall-clock timings (ms), filled by the kernel
    timings: dict[str, float] = field(default_factory=dict)
    #: per-request time budget (``None`` = unbounded); stages check the
    #: remaining time and degrade gracefully once it is exhausted
    deadline: Optional[Deadline] = None

    def evolve(self, **changes: Any) -> "QueryContext":
        """Return a copy with ``changes`` applied (dataclasses.replace)."""
        return replace(self, **changes)


@runtime_checkable
class Stage(Protocol):
    """One pipeline step: context in, evolved context out."""

    name: str

    def run(self, ctx: QueryContext) -> QueryContext:
        """Transform ``ctx``; record expected failures on ``ctx.error``."""
        ...


class SymbolicRetrievalStage:
    """Text-to-Cypher translation + execution (the paper's symbolic path).

    Serving hardening hooks: when the request deadline is already blown the
    stage skips translation entirely (recording :class:`DeadlineExceeded`
    so routing degrades to the vector path), and an optional
    :class:`~repro.serving.breaker.CircuitBreaker` gates the attempt —
    execution-class failures feed the breaker, and while it is open every
    symbolic attempt is skipped with :class:`CircuitOpen` recorded.
    """

    name = "symbolic"

    def __init__(
        self,
        retriever: TextToCypherRetriever,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.retriever = retriever
        self.breaker = breaker

    def _skip(
        self, ctx: QueryContext, error: PipelineError, reason: str
    ) -> QueryContext:
        """Degrade: record ``error`` without attempting symbolic retrieval."""
        symbolic = RetrievalResult(source="text2cypher", error=error.kind)
        diagnostics = mark_degraded(
            {
                **ctx.diagnostics,
                "symbolic_error": error.kind,
                "fallback_used": False,
                "error_class": error.to_dict(),
            },
            reason,
        )
        return ctx.evolve(
            symbolic=symbolic,
            error=error,
            sparse=True,  # a skipped attempt has no rows
            source=symbolic.source,
            diagnostics=diagnostics,
        )

    def run(self, ctx: QueryContext) -> QueryContext:
        if ctx.deadline is not None and ctx.deadline.expired:
            return self._skip(
                ctx,
                DeadlineExceeded("deadline exhausted before symbolic retrieval"),
                "symbolic_skipped_deadline",
            )
        if self.breaker is not None and not self.breaker.allow():
            return self._skip(
                ctx,
                CircuitOpen("symbolic circuit breaker is open"),
                "symbolic_skipped_breaker_open",
            )
        # The engine checks the deadline cooperatively as it produces rows.
        symbolic = self.retriever.retrieve(ctx.question, deadline=ctx.deadline)
        if symbolic.error is not None:
            logger.debug(
                "symbolic retrieval failed for %r: %s", ctx.question, symbolic.error
            )
        error = classify_symbolic_failure(symbolic)
        if self.breaker is not None:
            # Execution-class failures are infrastructure signals; a clean
            # run heals the breaker.  Translation misses and sparse results
            # say nothing about engine health, so they stay neutral.
            if isinstance(error, ExecutionError):
                self.breaker.record_failure()
            elif error is None:
                self.breaker.record_success()
            else:
                self.breaker.record_neutral()
        generation = copy.deepcopy(dict(symbolic.metadata))
        # The executed operator tree is a top-level diagnostic (observers
        # aggregate per-operator stats from it), not generation metadata.
        cypher_profile = generation.pop("cypher_profile", None)
        diagnostics = {
            **ctx.diagnostics,
            # deep copy: diagnostics must be safe to mutate post-hoc without
            # reaching back into retriever/LLM-owned structures
            "generation": generation,
            "symbolic_error": symbolic.error,
            "fallback_used": False,
        }
        if cypher_profile is not None:
            diagnostics["cypher_profile"] = cypher_profile
        if error is not None:
            diagnostics["error_class"] = error.to_dict()
        return ctx.evolve(
            symbolic=symbolic,
            cypher=symbolic.cypher,
            source=symbolic.source,
            error=error,
            sparse=isinstance(error, EmptyResult),
            diagnostics=diagnostics,
        )


class FallbackRoutingStage:
    """Picks the retrieval that feeds generation (the Figure-1 rule).

    With a symbolic path (``symbolic=True``), the symbolic result is used
    when its query succeeded and returned rows; otherwise the vector
    retriever, when one is given, fetches semantically nearby node
    descriptions, and without one the answer comes from whatever the
    symbolic path has.  Without a symbolic path every question routes to
    the vector retriever.
    """

    name = "routing"

    def __init__(self, vector: Optional[Retriever] = None, symbolic: bool = True) -> None:
        self.vector = vector
        self.symbolic = symbolic

    def run(self, ctx: QueryContext) -> QueryContext:
        if not self.symbolic:
            semantic = self.vector.retrieve(ctx.question)
            return ctx.evolve(
                semantic=semantic,
                retrieval=semantic,
                candidates=list(semantic.nodes),
                source=semantic.source,
                cypher=None,
                result=None,
                diagnostics={**ctx.diagnostics, "route": "vector-only"},
            )
        symbolic = ctx.symbolic or RetrievalResult(source="text2cypher")
        chosen = symbolic
        diagnostics = dict(ctx.diagnostics)
        if not symbolic.succeeded or ctx.sparse:
            diagnostics["sparse"] = ctx.sparse
            if self.vector is not None:
                logger.debug(
                    "falling back to vector retrieval for %r (sparse=%s)",
                    ctx.question,
                    ctx.sparse,
                )
                chosen = self.vector.retrieve(ctx.question)
                diagnostics["fallback_used"] = True
        fallback = chosen is not symbolic
        diagnostics["route"] = "symbolic-first"
        return ctx.evolve(
            semantic=chosen if fallback else ctx.semantic,
            retrieval=chosen,
            candidates=list(chosen.nodes),
            source=chosen.source,
            # the symbolic query is surfaced even when it failed, for transparency
            cypher=symbolic.cypher,
            result=None if fallback else symbolic.result,
            fallback_used=fallback,
            diagnostics=diagnostics,
        )


class RerankStage:
    """LLM re-scoring of the routed candidates — exactly once per query.

    Reranking is the cheapest stage to shed: when the request deadline is
    blown the stage passes candidates through untouched (recording
    ``rerank_skipped_deadline``), and transient reranker failures are
    retried under the optional :class:`~repro.serving.retry.RetryPolicy`.
    """

    name = "rerank"

    def __init__(
        self,
        reranker: Optional[LLMReranker],
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.reranker = reranker
        self.retry = retry

    def run(self, ctx: QueryContext) -> QueryContext:
        if self.reranker is None:
            return ctx.evolve(context=list(ctx.candidates))
        if ctx.deadline is not None and ctx.deadline.expired:
            return ctx.evolve(
                context=list(ctx.candidates),
                diagnostics=mark_degraded(ctx.diagnostics, "rerank_skipped_deadline"),
            )
        candidates = list(ctx.candidates)
        if self.retry is not None:
            context = self.retry.run(
                self.reranker.rerank, ctx.question, candidates, deadline=ctx.deadline
            )
        else:
            context = self.reranker.rerank(ctx.question, candidates)
        return ctx.evolve(context=context)


class SynthesisStage:
    """Answer generation from the routed retrieval + surviving context.

    On a blown deadline the stage degrades to a *partial answer* built
    directly from the structured rows / context snippets already in hand —
    no LLM call — and records ``synthesis_partial_deadline``.  Transient
    synthesizer failures are retried under the optional
    :class:`~repro.serving.retry.RetryPolicy`.
    """

    name = "synthesis"

    #: how many rows/snippets a degraded partial answer may surface
    _PARTIAL_LIMIT = 3

    def __init__(
        self,
        synthesizer: ResponseSynthesizer,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.synthesizer = synthesizer
        self.retry = retry

    def _partial_answer(self, ctx: QueryContext) -> str:
        """Cheapest viable answer from whatever the pipeline gathered."""
        if ctx.result is not None and ctx.result.records:
            rows = [
                ", ".join(
                    f"{key}: {render_value(value)}" for key, value in record.items()
                )
                for record in ctx.result.records[: self._PARTIAL_LIMIT]
            ]
            return "Partial answer (deadline exceeded): " + "; ".join(rows)
        snippets = [item.node.text for item in ctx.context[: self._PARTIAL_LIMIT]]
        if not snippets:
            snippets = [item.node.text for item in ctx.candidates[: self._PARTIAL_LIMIT]]
        if snippets:
            return "Partial answer (deadline exceeded): " + " ".join(snippets)
        return (
            "The request deadline was exceeded before an answer could be "
            "generated. Please retry with a larger budget."
        )

    def run(self, ctx: QueryContext) -> QueryContext:
        if ctx.deadline is not None and ctx.deadline.expired:
            return ctx.evolve(
                answer=self._partial_answer(ctx),
                diagnostics=mark_degraded(
                    ctx.diagnostics, "synthesis_partial_deadline"
                ),
            )
        retrieval = ctx.retrieval or RetrievalResult(source=ctx.source)
        if self.retry is not None:
            answer = self.retry.run(
                self.synthesizer.synthesize,
                ctx.question,
                retrieval,
                ctx.context,
                deadline=ctx.deadline,
            )
        else:
            answer = self.synthesizer.synthesize(ctx.question, retrieval, ctx.context)
        return ctx.evolve(answer=answer)


class StagePipeline:
    """The kernel: runs stages in order, timing and observing each one."""

    def __init__(
        self,
        stages: Iterable[Stage],
        observers: Iterable[PipelineObserver] = (),
    ) -> None:
        self.stages = list(stages)
        self._fanout = _ObserverFanout(observers)

    def run(self, ctx: QueryContext) -> QueryContext:
        for stage in self.stages:
            # Fault-injection site ("stage.<name>"): latency between stages
            # is the cleanest way to drive deadline-degradation paths —
            # sleeping here burns budget without touching any stage logic.
            fault_point(f"stage.{stage.name}")
            self._fanout.emit("on_stage_start", stage.name, ctx)
            error_before = ctx.error
            started = time.perf_counter()
            try:
                ctx = stage.run(ctx)
            except PipelineError as exc:
                # A stage may raise taxonomy errors instead of recording
                # them; normalise to the recorded form and keep going.
                ctx = ctx.evolve(error=exc)
            except Exception as exc:
                wrapped = PipelineError(f"{type(exc).__name__}: {exc}")
                self._fanout.emit("on_error", stage.name, wrapped, ctx)
                raise
            elapsed_ms = round((time.perf_counter() - started) * 1000.0, 4)
            ctx.timings[stage.name] = elapsed_ms
            if ctx.error is not None and ctx.error is not error_before:
                self._fanout.emit("on_error", stage.name, ctx.error, ctx)
            self._fanout.emit("on_stage_end", stage.name, ctx, elapsed_ms)
        return ctx
