"""ChatIYP — the natural-language interface over the IYP graph.

The facade assembles the whole system of Figure 1: the synthetic IYP graph,
the Cypher engine, the simulated LLM backbone, the three retrieval stages
and the response synthesizer.  ``ask()`` returns both the lexical response
and the underlying Cypher query for transparency, as the paper's UI does.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional, Sequence, Union

from ..cypher.executor import CypherEngine
from ..cypher.result import ResultSet
from ..embed.model import HashingEmbedding
from ..faults import active_injector, fault_point
from ..graph.schema import introspect_schema
from ..iyp.generator import IYPDataset
from ..iyp.loader import load_dataset
from ..llm.simulated import SimulatedLLM
from ..llm.text2cypher import ErrorModel
from ..nlp.entities import Gazetteer
from ..parallel import BatchOutcome, ParallelRunner, SingleFlight
from ..parallel import singleflight as _singleflight
from ..rag.observer import MetricsRegistry, PipelineObserver
from ..rag.pipeline import PipelineResponse, RetrieverQueryEngine
from ..rag.reranker import LLMReranker
from ..rag.routing import make_routing_policy
from ..rag.synthesizer import ResponseSynthesizer
from ..rag.text2cypher_retriever import TextToCypherRetriever
from ..rag.vector_retriever import VectorContextRetriever
from ..serving import AnswerCache, CircuitBreaker, Deadline, RetryPolicy
from .config import ChatIYPConfig
from .prompts import answer_prompt, rerank_prompt, text2cypher_prompt

__all__ = ["ChatResponse", "ChatIYP"]


@dataclass
class ChatResponse:
    """One answered question with full provenance."""

    question: str
    answer: str
    cypher: Optional[str]
    retrieval_source: str
    used_fallback: bool
    context_snippets: list[str] = field(default_factory=list)
    result: Optional[ResultSet] = None
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly rendering (used by the HTTP server)."""
        rows = self.result.to_dicts() if self.result is not None else None
        if rows is not None:
            from ..cypher.result import render_value

            rows = [
                {key: render_value(value) for key, value in row.items()} for row in rows
            ]
        diagnostics = {
            "route": self.diagnostics.get("route"),
            "symbolic_error": self.diagnostics.get("symbolic_error"),
            "error_class": self.diagnostics.get("error_class"),
            "stage_timings": self.diagnostics.get("stage_timings", {}),
            "degraded": list(self.diagnostics.get("degraded", ())),
            "cache_hit": bool(self.diagnostics.get("cache_hit", False)),
            "coalesced": bool(self.diagnostics.get("coalesced", False)),
        }
        # Executed operator tree (already JSON-safe), present only when
        # profiling is on — absent keys keep the payload stable otherwise.
        if "cypher_profile" in self.diagnostics:
            diagnostics["cypher_profile"] = self.diagnostics["cypher_profile"]
        return {
            "question": self.question,
            "answer": self.answer,
            "cypher": self.cypher,
            "retrieval_source": self.retrieval_source,
            "used_fallback": self.used_fallback,
            "context": self.context_snippets,
            "rows": rows,
            # JSON-safe provenance subset: routing decision, error taxonomy
            # and per-stage wall-clock timings from the pipeline kernel.
            "diagnostics": diagnostics,
        }


class ChatIYP:
    """The ChatIYP system: ``ChatIYP().ask("...")``."""

    def __init__(
        self,
        dataset: Optional[IYPDataset] = None,
        config: Optional[ChatIYPConfig] = None,
        observers: Optional[list[PipelineObserver]] = None,
    ) -> None:
        self.config = config or ChatIYPConfig()
        self.dataset = dataset or load_dataset(
            self.config.dataset_size, self.config.dataset_seed
        )
        self.store = self.dataset.store
        self.engine = CypherEngine(self.store)
        self.schema_text = introspect_schema(self.store).describe()

        gazetteer = Gazetteer.from_dataset(self.dataset)
        error_model = ErrorModel(
            base=self.config.error_base,
            slope=self.config.error_slope,
            power=self.config.error_power,
            syntax_share=self.config.syntax_error_share,
        )
        embedding = HashingEmbedding(dim=self.config.embedding_dim)
        self.llm = SimulatedLLM(
            gazetteer=gazetteer,
            seed=self.config.seed,
            error_model=error_model,
            embedding=embedding,
        )

        text2cypher = TextToCypherRetriever(
            engine=self.engine,
            llm=self.llm,
            schema_text=self.schema_text,
            prompt_builder=text2cypher_prompt,
            capture_profile=self.config.capture_cypher_profile,
            row_budget=self.config.cypher_row_budget,
        )
        vector = None
        # Non-default routing policies consult the vector retriever even
        # when the symbolic-first fallback is switched off.
        if self.config.use_vector_fallback or self.config.routing_policy != "symbolic-first":
            vector = VectorContextRetriever(
                self.store, top_k=self.config.vector_top_k
            )
        reranker = None
        if self.config.use_reranker:
            reranker = LLMReranker(
                self.llm,
                top_n=self.config.rerank_top_n,
                prompt_builder=rerank_prompt,
            )
        synthesizer = ResponseSynthesizer(self.llm, prompt_builder=answer_prompt)
        # The metrics registry rides along on every query (per-stage latency
        # aggregates + routing counters); the HTTP server serves it under
        # /metrics, and callers can attach further observers (tracing, ...).
        self.metrics = MetricsRegistry()
        # Serving hardening: circuit breaker around the symbolic path
        # (state transitions are counted in the metrics registry), retry
        # with seeded jittered backoff for transient LLM-stage failures,
        # and a bounded LRU answer cache keyed so that config changes and
        # graph mutations invalidate automatically.
        self.breaker: Optional[CircuitBreaker] = None
        if self.config.breaker_failure_threshold > 0:
            self.breaker = CircuitBreaker(
                failure_threshold=self.config.breaker_failure_threshold,
                reset_after_ms=self.config.breaker_reset_ms,
                on_transition=lambda old, new: self.metrics.increment(
                    f"breaker.{new.value}"
                ),
            )
        self.retry_policy: Optional[RetryPolicy] = None
        if self.config.llm_retry_attempts > 1:
            self.retry_policy = RetryPolicy(
                attempts=self.config.llm_retry_attempts,
                backoff_ms=self.config.llm_retry_backoff_ms,
                seed=self.config.seed,
                on_deadline_capped=lambda: self.metrics.increment(
                    "retry.deadline_capped"
                ),
            )
        retry_policy = self.retry_policy
        self.answer_cache: Optional[AnswerCache] = (
            AnswerCache(self.config.answer_cache_size)
            if self.config.answer_cache_size > 0
            else None
        )
        # Concurrent duplicates of the same question share one pipeline
        # execution (the cache handles sequential repeats).
        self.inflight: Optional[SingleFlight] = (
            SingleFlight() if self.config.coalesce_inflight else None
        )
        self._config_fingerprint = self.config.fingerprint()
        self.pipeline = RetrieverQueryEngine(
            text2cypher=text2cypher,
            vector=vector,
            reranker=reranker,
            synthesizer=synthesizer,
            vector_fallback=self.config.use_vector_fallback,
            sparse_row_threshold=self.config.sparse_row_threshold,
            routing_policy=make_routing_policy(self.config.routing_policy),
            observers=[self.metrics, *(observers or [])],
            breaker=self.breaker,
            retry_policy=retry_policy,
        )
        if self.config.use_decomposition:
            from ..rag.decompose import DecomposingQueryEngine, QuestionDecomposer

            self.pipeline = DecomposingQueryEngine(
                self.pipeline, QuestionDecomposer(gazetteer)
            )

    # ------------------------------------------------------------------

    @staticmethod
    def _copy_response(
        response: ChatResponse, *, cache_hit: bool = False, coalesced: bool = False
    ) -> ChatResponse:
        """Copy-on-share: cache hits and coalesced followers get their own
        mutable diagnostics/context so callers never corrupt the shared
        entry (or each other)."""
        diagnostics = copy.deepcopy(response.diagnostics)
        if cache_hit:
            diagnostics["cache_hit"] = True
        if coalesced:
            diagnostics["coalesced"] = True
        return replace(
            response,
            context_snippets=list(response.context_snippets),
            diagnostics=diagnostics,
        )

    def _request_key(self, text: str) -> tuple:
        """Identity of a request for caching/coalescing purposes."""
        return AnswerCache.key(text, self._config_fingerprint, self.store.stats_version)

    def _execute(
        self, text: str, cache_key: Optional[tuple], deadline: Optional[Deadline]
    ) -> ChatResponse:
        """Run the full pipeline once and (maybe) cache the answer."""
        # Fault-injection site: one full pipeline execution. Injected
        # latency here makes a slow single-flight leader (followers time
        # out against their own deadlines and fall through); an injected
        # error is a leader failure (followers re-execute independently).
        fault_point("serving.execute")
        pipeline_response: PipelineResponse = self.pipeline.query(
            text, deadline=deadline
        )
        degraded = pipeline_response.diagnostics.get("degraded", ())
        for reason in degraded:
            self.metrics.increment(f"degraded.{reason}")
        response = ChatResponse(
            question=text,
            answer=pipeline_response.answer,
            cypher=pipeline_response.cypher,
            retrieval_source=pipeline_response.retrieval_source,
            used_fallback=pipeline_response.used_fallback,
            context_snippets=[item.node.text for item in pipeline_response.context],
            result=pipeline_response.result,
            diagnostics=pipeline_response.diagnostics,
        )
        # Degraded answers are artifacts of load/deadline pressure, not the
        # question — never let them shadow a full answer in the cache.
        if self.answer_cache is not None and cache_key is not None and not degraded:
            self.answer_cache.put(cache_key, response)
        return response

    def ask(
        self,
        question: str,
        deadline_ms: Optional[float] = None,
        *,
        deadline: Optional[Deadline] = None,
    ) -> ChatResponse:
        """Answer a natural-language question about the IYP graph.

        ``deadline_ms`` caps this request's wall-clock budget (falling back
        to ``config.deadline_ms``; ``None`` = unbounded).  Batch callers
        may instead pass an already-running ``deadline`` so queueing time
        counts against the budget.  A blown budget degrades the pipeline
        gracefully — the response then lists what was shed under
        ``diagnostics["degraded"]``.  Answers are served from the bounded
        LRU cache when an identical question was answered under the same
        configuration against the same graph version, and concurrent
        duplicates coalesce onto a single pipeline execution
        (``diagnostics["coalesced"]`` marks the followers).
        """
        if not question or not question.strip():
            return ChatResponse(
                question=question,
                answer="Please ask a question about Internet infrastructure.",
                cypher=None,
                retrieval_source="none",
                used_fallback=False,
            )
        text = question.strip()
        self.metrics.increment("ask.requests")

        cache_key = None
        if self.answer_cache is not None or self.inflight is not None:
            cache_key = self._request_key(text)
        if self.answer_cache is not None:
            cached = self.answer_cache.get(cache_key)
            if cached is not None:
                self.metrics.increment("cache.hit")
                return self._copy_response(cached, cache_hit=True)
            self.metrics.increment("cache.miss")

        if deadline is None:
            budget_ms = (
                deadline_ms if deadline_ms is not None else self.config.deadline_ms
            )
            deadline = Deadline.start(budget_ms) if budget_ms else None

        if self.inflight is None:
            return self._execute(text, cache_key, deadline)

        leader, flight = self.inflight.begin(cache_key)
        if not leader:
            # Wait no longer than our own remaining budget; a follower that
            # times out (or whose leader failed) executes independently —
            # coalescing must never make a request less reliable.
            timeout_s = (
                deadline.remaining_ms() / 1000.0 if deadline is not None else None
            )
            status = flight.wait(timeout_s)
            if status == _singleflight.OK:
                self.metrics.increment("singleflight.coalesced")
                return self._copy_response(flight.value, coalesced=True)
            self.metrics.increment("singleflight.fallthrough")
            return self._execute(text, cache_key, deadline)
        try:
            response = self._execute(text, cache_key, deadline)
        except BaseException as exc:
            self.inflight.finish(flight, error=exc)
            raise
        self.inflight.finish(flight, value=response)
        return response

    def ask_batch(
        self,
        questions: Iterable[str],
        deadline_ms: Union[float, Sequence[Optional[float]], None] = None,
        workers: int = 4,
    ) -> list[BatchOutcome]:
        """Answer many questions concurrently through the batch runner.

        ``deadline_ms`` is either one budget applied to every question or a
        sequence aligned with ``questions`` (``None`` entries fall back to
        ``config.deadline_ms``).  Every deadline starts **now** — time an
        item spends queued behind earlier items counts against its budget,
        exactly as it would for a request waiting in an admission queue.

        Returns one :class:`~repro.parallel.BatchOutcome` per question, in
        input order; a failed item carries its exception instead of taking
        the whole batch down.  Identical concurrent questions coalesce
        through the single-flight layer like any other concurrent asks.
        """
        question_list = list(questions)
        self.metrics.increment("ask.batch_requests")
        if not question_list:
            return []
        self.metrics.increment("ask.batch_questions", by=len(question_list))
        if deadline_ms is None or isinstance(deadline_ms, (int, float)):
            budgets: list[Optional[float]] = [deadline_ms] * len(question_list)
        else:
            budgets = list(deadline_ms)
            if len(budgets) != len(question_list):
                raise ValueError(
                    f"deadline_ms sequence length {len(budgets)} != "
                    f"question count {len(question_list)}"
                )
        deadlines: list[Optional[Deadline]] = []
        for budget in budgets:
            ms = budget if budget is not None else self.config.deadline_ms
            deadlines.append(Deadline.start(ms) if ms else None)
        runner = ParallelRunner(workers=max(1, workers), thread_name_prefix="ask-batch")
        return runner.map_outcomes(
            lambda index: self.ask(question_list[index], deadline=deadlines[index]),
            range(len(question_list)),
        )

    def run_cypher(self, query: str, **params: Any) -> ResultSet:
        """Escape hatch: run raw Cypher against the underlying graph."""
        return self.engine.run(query, **params)

    def serving_snapshot(self) -> dict[str, Any]:
        """Live state of the serving-hardening layer (for ``/metrics``)."""
        injector = active_injector()
        return {
            "compile": {},  # stub: benchmarks/e2e/workloads.py still reads this key
            "csr": {},  # stub: benchmarks/e2e/workloads.py still reads this key
            "cache": self.answer_cache.stats() if self.answer_cache else None,
            "breaker": self.breaker.snapshot() if self.breaker else None,
            "inflight": self.inflight.snapshot() if self.inflight else None,
            "retry": (
                {
                    "retries": self.retry_policy.retries,
                    "deadline_capped": self.retry_policy.deadline_capped,
                }
                if self.retry_policy
                else None
            ),
            # Process-global fault injector (None outside chaos/staging runs).
            "faults": injector.snapshot() if injector else None,
        }

    @property
    def schema(self) -> str:
        """The schema text injected into the text-to-Cypher prompt."""
        return self.schema_text
