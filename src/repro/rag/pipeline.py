"""RetrieverQueryEngine — orchestrates the full RAG pipeline (Figure 1).

Flow, exactly as the paper describes:

1. the **TextToCypherRetriever** translates and executes a graph query;
2. when symbolic translation fails, or the query returns no rows, the
   **VectorContextRetriever** fetches semantically nearby node
   descriptions instead;
3. the **LLMReranker** re-scores the retrieval candidates;
4. the **ResponseSynthesizer** generates the answer, returning the refined
   Cypher query alongside for transparency.

The engine is a thin composition root: it builds the four
:mod:`~repro.rag.stages` stages from the retrievers it was given and hands
them to the :class:`~repro.rag.stages.StagePipeline` kernel, which times
each stage and drives the attached
:class:`~repro.rag.observer.PipelineObserver` hooks.  The route follows
from those retrievers: without a text-to-Cypher retriever every question
goes to vector retrieval, and without a vector retriever there is no
fallback.
The public ``query()`` API and :class:`PipelineResponse` shape are
unchanged; per-stage timings appear under ``diagnostics["stage_timings"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..cypher.result import ResultSet
from ..serving.breaker import CircuitBreaker
from ..serving.deadline import Deadline
from ..serving.retry import RetryPolicy
from .observer import PipelineObserver
from .reranker import LLMReranker
from .stages import (
    FallbackRoutingStage,
    QueryContext,
    RerankStage,
    Stage,
    StagePipeline,
    SymbolicRetrievalStage,
    SynthesisStage,
)
from .synthesizer import ResponseSynthesizer
from .text2cypher_retriever import TextToCypherRetriever
from .types import NodeWithScore
from .vector_retriever import VectorContextRetriever

__all__ = ["PipelineResponse", "RetrieverQueryEngine"]


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


class RetrieverQueryEngine:
    """Composable query engine over the staged retrieval pipeline."""

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
        self.text2cypher = text2cypher
        self.vector = vector
        self.reranker = reranker
        self.synthesizer = synthesizer
        self.observers = list(observers)
        # Serving hardening (all optional): a circuit breaker guarding the
        # symbolic path and a retry policy for the LLM-facing stages.
        self.breaker = breaker
        self.retry_policy = retry_policy

    # ------------------------------------------------------------------

    def build_stages(self) -> list[Stage]:
        """The stage sequence for the current configuration.

        Rebuilt per query so swapping ``reranker``/``vector``/``breaker`` on
        a live engine takes effect immediately; stage construction is a few
        attribute assignments, far below retrieval cost.
        """
        stages: list[Stage] = []
        if self.text2cypher is not None:
            stages.append(SymbolicRetrievalStage(self.text2cypher, breaker=self.breaker))
        stages.append(
            FallbackRoutingStage(self.vector, symbolic=self.text2cypher is not None)
        )
        stages.append(RerankStage(self.reranker, retry=self.retry_policy))
        stages.append(SynthesisStage(self.synthesizer, retry=self.retry_policy))
        return stages

    def query(
        self, question: str, deadline: Optional[Deadline] = None
    ) -> PipelineResponse:
        """Run the full staged pipeline for one question.

        ``deadline`` (optional) is the request's remaining time budget; a
        blown budget degrades stages gracefully instead of hanging, with
        every degradation recorded under ``diagnostics["degraded"]``.
        """
        kernel = StagePipeline(self.build_stages(), self.observers)
        ctx = kernel.run(QueryContext(question=question, deadline=deadline))
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
