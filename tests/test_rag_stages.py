"""Tests for the pipeline steps of ``RetrieverQueryEngine.query``: step
sequence, routing, observer callbacks and fault sites, the error taxonomy,
and the behavioural guarantees (rerank-exactly-once, diagnostics
isolation, zero-row sparsity edge cases)."""

import sys
import threading

import pytest

from repro.core.prompts import answer_prompt, rerank_prompt, text2cypher_prompt
from repro.cypher import CypherEngine, CypherRuntimeError, CypherSyntaxError, UnsupportedWrite
from repro.cypher.errors import CypherDeadlineExceeded
from repro.cypher.errors import ResourceExhausted as CypherResourceExhausted
from repro.faults import FaultInjector, FaultPlan, activated
from repro.faults.errors import InjectedCypherError
from repro.graph import introspect_schema
from repro.llm import ErrorModel, SimulatedLLM
from repro.nlp import Gazetteer
from repro.rag import observer as observer_module
from repro.rag import (
    EmptyResult,
    ExecutionError,
    LLMReranker,
    MetricsRegistry,
    PipelineError,
    PipelineObserver,
    ResponseSynthesizer,
    RetrievalResult,
    RetrieverQueryEngine,
    SymbolicTranslationError,
    TextToCypherRetriever,
    TracingObserver,
    VectorContextRetriever,
    classify_symbolic_failure,
)


@pytest.fixture(scope="module")
def reliable_llm(small_dataset):
    return SimulatedLLM(
        Gazetteer.from_dataset(small_dataset),
        seed=0,
        error_model=ErrorModel(base=0.0, slope=0.0),
    )

@pytest.fixture(scope="module")
def schema_text(small_store):
    return introspect_schema(small_store).describe()


@pytest.fixture(scope="module")
def symbolic(small_store, reliable_llm, schema_text):
    return TextToCypherRetriever(
        CypherEngine(small_store), reliable_llm, schema_text, text2cypher_prompt
    )


@pytest.fixture(scope="module")
def vector(small_store):
    return VectorContextRetriever(small_store, top_k=5)


class CountingReranker(LLMReranker):
    """LLMReranker that counts how many times rerank() was invoked."""

    def __init__(self, llm, **kwargs):
        super().__init__(llm, **kwargs)
        self.calls = 0

    def rerank(self, query, candidates):
        self.calls += 1
        return super().rerank(query, candidates)


class RecordingObserver(PipelineObserver):
    def __init__(self):
        self.events = []

    def on_stage_start(self, stage, ctx):
        self.events.append(("start", stage))

    def on_stage_end(self, stage, ctx, elapsed_ms):
        self.events.append(("end", stage))

    def on_error(self, stage, error, ctx):
        self.events.append(("error", stage, type(error).__name__))


def make_engine(symbolic, vector, reliable_llm, **kwargs):
    defaults = dict(
        text2cypher=symbolic,
        vector=vector,
        reranker=LLMReranker(reliable_llm, top_n=4, prompt_builder=rerank_prompt),
        synthesizer=ResponseSynthesizer(reliable_llm, answer_prompt),
    )
    defaults.update(kwargs)
    return RetrieverQueryEngine(**defaults)


def lonely_asn(small_dataset):
    """An AS with no IXP memberships: its membership query returns 0 rows."""
    return next(
        asn
        for asn, node in small_dataset.as_nodes.items()
        if small_dataset.store.degree(node.node_id, "out", ["MEMBER_OF"]) == 0
    )


class SiteRecorder(FaultInjector):
    """An active injector whose plan fires nothing; records every site hit."""

    def __init__(self):
        super().__init__(FaultPlan(name="record"))
        self.sites = []

    def fire(self, site):
        self.sites.append(site)
        return super().fire(site)


class TestStageComposition:
    def test_default_stage_sequence(self, symbolic, vector, reliable_llm):
        observer = RecordingObserver()
        engine = make_engine(symbolic, vector, reliable_llm, observers=[observer])
        response = engine.query("please sing a sea shanty")
        assert list(response.diagnostics["stage_timings"]) == [
            "symbolic", "routing", "rerank", "synthesis"
        ]
        # a recorded error is reported between its step's start and end
        assert observer.events == [
            ("start", "symbolic"), ("error", "symbolic", "SymbolicTranslationError"),
            ("end", "symbolic"),
            ("start", "routing"), ("end", "routing"),
            ("start", "rerank"), ("end", "rerank"),
            ("start", "synthesis"), ("end", "synthesis"),
        ]

    def test_vector_only_drops_symbolic_stage(self, vector, reliable_llm):
        observer = RecordingObserver()
        engine = RetrieverQueryEngine(
            text2cypher=None,
            vector=vector,
            synthesizer=ResponseSynthesizer(reliable_llm, answer_prompt),
            observers=[observer],
        )
        response = engine.query("Which country is AS2497 registered in?")
        names = ["routing", "rerank", "synthesis"]
        assert list(response.diagnostics["stage_timings"]) == names
        assert observer.events == [
            (kind, name) for name in names for kind in ("start", "end")
        ]

    @pytest.mark.parametrize(
        "with_symbolic, sites",
        [
            (True, ["stage.symbolic", "stage.routing", "stage.rerank", "stage.synthesis"]),
            (False, ["stage.routing", "stage.rerank", "stage.synthesis"]),
        ],
    )
    def test_stage_fault_sites_fire_once_each_in_order(
        self, symbolic, vector, reliable_llm, with_symbolic, sites
    ):
        engine = make_engine(symbolic if with_symbolic else None, vector, reliable_llm)
        with activated(SiteRecorder()) as injector:
            response = engine.query("Which country is AS2497 registered in?")
        assert [site for site in injector.sites if site.startswith("stage.")] == sites
        assert injector.snapshot()["fires"] == {}
        assert response.answer

    def test_stage_timings_recorded_per_stage(self, symbolic, vector, reliable_llm):
        engine = make_engine(symbolic, vector, reliable_llm)
        response = engine.query("Which country is AS2497 registered in?")
        timings = response.diagnostics["stage_timings"]
        assert set(timings) == {"symbolic", "routing", "rerank", "synthesis"}
        assert all(value >= 0.0 for value in timings.values())

    def test_public_response_shape_unchanged(self, symbolic, vector, reliable_llm):
        engine = make_engine(symbolic, vector, reliable_llm)
        response = engine.query("Which country is AS2497 registered in?")
        assert response.retrieval_source == "text2cypher"
        assert not response.used_fallback
        assert "Japan" in response.answer
        assert response.result is not None
        assert response.diagnostics["symbolic_error"] is None


class TestRoutingPolicies:
    def test_engine_requires_a_retriever(self, reliable_llm):
        with pytest.raises(ValueError):
            RetrieverQueryEngine(
                text2cypher=None,
                vector=None,
                synthesizer=ResponseSynthesizer(reliable_llm, answer_prompt),
            )

    def test_vector_only_route(self, vector, reliable_llm):
        engine = make_engine(None, vector, reliable_llm)
        response = engine.query("Which country is AS2497 registered in?")
        assert response.retrieval_source == "vector"
        assert response.cypher is None
        assert response.result is None
        assert response.diagnostics["route"] == "vector-only"
        assert response.context


class TestSparseRoutingEdgeCases:
    def test_exactly_threshold_rows_trigger_fallback(
        self, symbolic, vector, reliable_llm, small_dataset
    ):
        # Sparse means zero rows: a membership query for an AS with no IXP
        # memberships runs cleanly, returns nothing, and must fall back.
        engine = make_engine(symbolic, vector, reliable_llm)
        asn = lonely_asn(small_dataset)
        response = engine.query(f"Which IXPs is AS{asn} a member of?")
        assert response.used_fallback
        assert response.diagnostics["sparse"] is True
        assert response.diagnostics["error_class"] == {
            "kind": "empty_result",
            "type": "EmptyResult",
            "message": "query returned 0 row(s) (threshold 0)",
        }

    def test_rows_above_threshold_stay_symbolic(self, symbolic, vector, reliable_llm):
        # One row is not sparse.
        engine = make_engine(symbolic, vector, reliable_llm)
        response = engine.query("Which country is AS2497 registered in?")
        assert not response.used_fallback
        assert len(response.result.records) == 1
        assert "sparse" not in response.diagnostics

    def test_fallback_disabled_with_symbolic_error(self, symbolic, reliable_llm):
        engine = make_engine(symbolic, None, reliable_llm)
        response = engine.query("please sing a sea shanty")
        assert response.retrieval_source == "text2cypher"
        assert not response.used_fallback
        assert response.diagnostics["symbolic_error"] == "translation_failed"
        assert response.diagnostics["sparse"] is False
        assert "could not" in response.answer.lower()


class TestRerankExactlyOnce:
    @pytest.mark.parametrize(
        "question, with_symbolic",
        [
            ("Which country is AS2497 registered in?", True),  # clean
            ("please sing a sea shanty", True),  # fallback
            ("Which country is AS2497 registered in?", False),  # vector-only
        ],
    )
    def test_reranker_runs_once_per_query(
        self, symbolic, vector, reliable_llm, question, with_symbolic
    ):
        reranker = CountingReranker(reliable_llm, top_n=4, prompt_builder=rerank_prompt)
        engine = make_engine(
            symbolic if with_symbolic else None, vector, reliable_llm, reranker=reranker
        )
        engine.query(question)
        assert reranker.calls == 1

    def test_reranker_runs_once_without_fallback(self, symbolic, reliable_llm):
        reranker = CountingReranker(reliable_llm, top_n=4, prompt_builder=rerank_prompt)
        engine = make_engine(symbolic, None, reliable_llm, reranker=reranker)
        engine.query("please sing a sea shanty")
        assert reranker.calls == 1


class TestDiagnosticsIsolation:
    def test_posthoc_mutation_does_not_leak_between_queries(
        self, symbolic, vector, reliable_llm
    ):
        engine = make_engine(symbolic, vector, reliable_llm)
        question = "Which country is AS2497 registered in?"
        first = engine.query(question)
        first.diagnostics["generation"]["intent"] = "corrupted"
        first.diagnostics["stage_timings"]["symbolic"] = -1.0
        second = engine.query(question)
        assert second.diagnostics["generation"]["intent"] == "as_country"
        assert second.diagnostics["stage_timings"]["symbolic"] >= 0.0

    def test_diagnostics_not_aliased_to_retriever_metadata(
        self, symbolic, vector, reliable_llm
    ):
        engine = make_engine(symbolic, vector, reliable_llm)
        question = "Which country is AS2497 registered in?"
        raw = symbolic.retrieve(question)
        response = engine.query(question)
        generation = response.diagnostics["generation"]
        assert generation == {
            key: raw.metadata.get(key)
            for key in ("confidence", "intent", "perturbation", "coverage")
        }
        assert generation is not raw.metadata
        generation.clear()
        assert symbolic.retrieve(question).metadata["intent"] == "as_country"


class TestErrorTaxonomy:
    def test_classify_translation_failure(self):
        error = classify_symbolic_failure(
            RetrievalResult(source="text2cypher", error="translation_failed")
        )
        assert isinstance(error, SymbolicTranslationError)
        assert error.kind == "translation"

    def test_classify_execution_failure(self):
        error = classify_symbolic_failure(
            RetrievalResult(
                source="text2cypher",
                cypher="MATCH (broken",
                error="CypherSyntaxError: boom",
                error_type=CypherSyntaxError,
            )
        )
        assert isinstance(error, ExecutionError)
        assert error.cypher == "MATCH (broken"
        assert error.unparsable

    @pytest.mark.parametrize("error_type, kind, unparsable", [
        (CypherRuntimeError, "execution", False),
        (InjectedCypherError, "execution", False),
        (UnsupportedWrite, "execution", True),
        (CypherResourceExhausted, "resource_exhausted", False),
        (CypherDeadlineExceeded, "deadline", None),
    ])
    def test_classify_follows_the_exception_class(self, error_type, kind, unparsable):
        # The class decides, not the text: a message naming another class
        # changes nothing, and the text is passed on unchanged.
        message = "CypherSyntaxError: ResourceExhausted: CypherDeadlineExceeded"
        error = classify_symbolic_failure(RetrievalResult(
            source="text2cypher", cypher="MATCH (n) RETURN n", error=message,
            error_type=error_type,
        ))
        assert error.kind == kind and str(error) == message
        assert getattr(error, "unparsable", None) is unparsable

    def test_retriever_passes_the_exception_class(self, symbolic, monkeypatch):
        def exhausted(*args, **kwargs):
            raise CypherResourceExhausted("row budget 3 exceeded")

        monkeypatch.setattr(symbolic.engine, "execute", exhausted)
        raw = symbolic.retrieve("Which country is AS2497 registered in?")
        assert raw.error == "ResourceExhausted: row budget 3 exceeded"
        assert raw.error_type is CypherResourceExhausted
        assert classify_symbolic_failure(raw).kind == "resource_exhausted"

    def test_classify_clean_result_is_none(self, symbolic):
        raw = symbolic.retrieve("Which country is AS2497 registered in?")
        assert classify_symbolic_failure(raw) is None

    def test_classify_sparse_result(self, symbolic, small_dataset):
        asn = lonely_asn(small_dataset)
        raw = symbolic.retrieve(f"Which IXPs is AS{asn} a member of?")
        error = classify_symbolic_failure(raw)
        assert isinstance(error, EmptyResult)
        assert error.kind == "empty_result"

    def test_error_class_in_diagnostics(self, symbolic, vector, reliable_llm):
        engine = make_engine(symbolic, vector, reliable_llm)
        response = engine.query("please sing a sea shanty")
        assert response.diagnostics["error_class"] == {
            "kind": "translation",
            "type": "SymbolicTranslationError",
            "message": "the question could not be translated",
        }

    def test_execution_error_in_diagnostics(
        self, small_store, small_dataset, schema_text, vector
    ):
        broken_llm = SimulatedLLM(
            Gazetteer.from_dataset(small_dataset),
            seed=0,
            error_model=ErrorModel(base=1.0, slope=0.0, syntax_share=1.0),
        )
        engine = RetrieverQueryEngine(
            text2cypher=TextToCypherRetriever(
                CypherEngine(small_store), broken_llm, schema_text, text2cypher_prompt
            ),
            vector=vector,
            synthesizer=ResponseSynthesizer(broken_llm, answer_prompt),
        )
        response = engine.query("Which country is AS2497 registered in?")
        assert response.diagnostics["error_class"]["kind"] == "execution"
        assert response.used_fallback


class TestObservers:
    def test_callback_order(self, symbolic, vector, reliable_llm):
        observer = RecordingObserver()
        engine = make_engine(symbolic, vector, reliable_llm, observers=[observer])
        engine.query("Which country is AS2497 registered in?")
        assert observer.events == [
            ("start", "symbolic"), ("end", "symbolic"),
            ("start", "routing"), ("end", "routing"),
            ("start", "rerank"), ("end", "rerank"),
            ("start", "synthesis"), ("end", "synthesis"),
        ]

    def test_on_error_fires_with_taxonomy_instance(self, symbolic, vector, reliable_llm):
        observer = RecordingObserver()
        engine = make_engine(symbolic, vector, reliable_llm, observers=[observer])
        engine.query("please sing a sea shanty")
        assert ("error", "symbolic", "SymbolicTranslationError") in observer.events

    def test_raising_observer_does_not_break_query(self, symbolic, vector, reliable_llm):
        class ExplodingObserver(PipelineObserver):
            def on_stage_start(self, stage, ctx):
                raise RuntimeError("observer bug")

        engine = make_engine(
            symbolic, vector, reliable_llm, observers=[ExplodingObserver()]
        )
        response = engine.query("Which country is AS2497 registered in?")
        assert "Japan" in response.answer

    def test_tracing_observer_spans(self, symbolic, vector, reliable_llm):
        tracer = TracingObserver()
        engine = make_engine(symbolic, vector, reliable_llm, observers=[tracer])
        engine.query("please sing a sea shanty")
        spans = tracer.to_dicts()
        assert [span["stage"] for span in spans] == [
            "symbolic", "routing", "rerank", "synthesis"
        ]
        assert spans[0]["error"] == "SymbolicTranslationError"
        assert all(span["elapsed_ms"] >= 0.0 for span in spans)

    def test_metrics_registry_aggregates(self, symbolic, vector, reliable_llm):
        metrics = MetricsRegistry()
        engine = make_engine(symbolic, vector, reliable_llm, observers=[metrics])
        engine.query("Which country is AS2497 registered in?")
        engine.query("please sing a sea shanty")
        snapshot = metrics.snapshot()
        assert snapshot["stages"]["symbolic"]["calls"] == 2
        assert snapshot["stages"]["synthesis"]["calls"] == 2
        assert snapshot["stages"]["symbolic"]["errors"] == 1
        assert snapshot["counters"]["error.translation"] == 1
        metrics.reset()
        assert metrics.snapshot() == {"stages": {}, "counters": {}}

    def test_metrics_registry_makes_one_stats_per_stage(self, monkeypatch):
        made = []

        class CountedStats(observer_module.StageStats):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(observer_module, "StageStats", CountedStats)
        metrics = MetricsRegistry()
        metrics.on_stage_end("symbolic", None, 2.0)
        metrics.on_stage_end("symbolic", None, 1.0)
        metrics.on_error("rerank", SymbolicTranslationError("x"), None)
        metrics.on_stage_end("rerank", None, 0.5)
        metrics.on_error("synthesis", PipelineError("y"), None)
        assert len(made) == 3
        assert metrics.snapshot() == {
            "stages": {
                "rerank": {"calls": 1, "errors": 1, "total_ms": 0.5, "mean_ms": 0.5,
                           "min_ms": 0.5, "max_ms": 0.5},
                "symbolic": {"calls": 2, "errors": 0, "total_ms": 3.0, "mean_ms": 1.5,
                             "min_ms": 1.0, "max_ms": 2.0},
                "synthesis": {"calls": 0, "errors": 1, "total_ms": 0.0, "mean_ms": 0.0,
                              "min_ms": 0.0, "max_ms": 0.0},
            },
            "counters": {"error.pipeline_error": 1, "error.translation": 1},
        }

    def test_kernel_reraises_unexpected_exceptions(self, symbolic, vector, reliable_llm):
        class BoomSynthesizer(ResponseSynthesizer):
            def synthesize(self, query, retrieval, context):
                raise RuntimeError("unexpected")

        observer = RecordingObserver()
        errors = []

        class ErrorCapture(PipelineObserver):
            def on_error(self, stage, error, ctx):
                errors.append(error)

        engine = make_engine(
            symbolic, vector, reliable_llm,
            synthesizer=BoomSynthesizer(reliable_llm, answer_prompt),
            observers=[observer, ErrorCapture()],
        )
        with pytest.raises(RuntimeError, match="unexpected"):
            engine.query("Which country is AS2497 registered in?")
        assert observer.events[-2:] == [
            ("start", "synthesis"), ("error", "synthesis", "PipelineError")
        ]
        assert ("end", "synthesis") not in observer.events
        assert type(errors[-1]) is PipelineError
        assert str(errors[-1]) == "RuntimeError: unexpected"

    def test_tracing_observer_records_the_span_of_a_raising_step(
        self, vector, reliable_llm
    ):
        class BoomSynthesizer(ResponseSynthesizer):
            def synthesize(self, query, retrieval, context):
                raise RuntimeError("unexpected")

        tracer = TracingObserver()
        engine = make_engine(
            None, vector, reliable_llm,
            synthesizer=BoomSynthesizer(reliable_llm, answer_prompt),
            observers=[tracer],
        )
        for _ in range(2):
            with pytest.raises(RuntimeError, match="unexpected"):
                engine.query("Tell me about AS2497")
        spans = tracer.to_dicts()
        assert [(span["stage"], span["index"]) for span in spans] == [
            ("routing", 0), ("rerank", 1), ("synthesis", 2),
            ("routing", 3), ("rerank", 4), ("synthesis", 5),
        ]
        assert [span.get("error") for span in spans] == [
            None, None, "PipelineError"
        ] * 2
        assert spans[2]["elapsed_ms"] >= 0.0
        assert tracer._open == {}

    def test_tracing_observer_keeps_concurrent_spans_apart(self):
        # Two requests, each on its own thread, interleave the same stage:
        # A starts, B starts, A records an error and ends, B ends.  The
        # main thread releases the hooks one at a time in that order.
        tracer = TracingObserver()
        script = [("A", "start"), ("B", "start"), ("A", "error"), ("A", "end"), ("B", "end")]
        elapsed = {"A": 1.0, "B": 2.0}
        go = [threading.Event() for _ in script]
        done = [threading.Event() for _ in script]

        def request(name):
            for index, (who, hook) in enumerate(script):
                if who != name or not go[index].wait(timeout=5):
                    continue
                if hook == "start":
                    tracer.on_stage_start("symbolic", None)
                elif hook == "error":
                    tracer.on_error("symbolic", EmptyResult("no rows"), None)
                else:
                    tracer.on_stage_end("symbolic", None, elapsed[name])
                done[index].set()

        threads = [threading.Thread(target=request, args=(name,)) for name in "AB"]
        for thread in threads:
            thread.start()
        for index in range(len(script)):
            go[index].set()
            assert done[index].wait(timeout=5)
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert tracer.to_dicts() == [
            {"stage": "symbolic", "index": 0, "elapsed_ms": 1.0, "error": "EmptyResult"},
            {"stage": "symbolic", "index": 1, "elapsed_ms": 2.0},
        ]

    def test_tracing_observer_loses_no_span_under_contention(self):
        tracer = TracingObserver()
        workers, requests = 8, 50
        stages = ["symbolic", "routing", "rerank", "synthesis"]

        def run(worker):
            for _ in range(requests):
                for stage in stages:
                    tracer.on_stage_start(stage, None)
                    if stage == "symbolic" and worker % 2:
                        tracer.on_error(stage, EmptyResult("no rows"), None)
                    tracer.on_stage_end(stage, None, float(worker))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        spans = tracer.to_dicts()
        assert sorted(span["index"] for span in spans) == list(range(len(spans)))
        assert len(spans) == workers * requests * len(stages)
        # every error landed on its own request's symbolic span
        errored = [span for span in spans if "error" in span]
        assert len(errored) == (workers // 2) * requests
        assert all(
            span["stage"] == "symbolic" and int(span["elapsed_ms"]) % 2 for span in errored
        )


class TestChatIYPIntegration:
    def test_metrics_attached_by_default(self, chatiyp_small):
        # The session-scoped bot may already hold this answer in its cache;
        # either a fresh synthesis call or a cache hit proves the registry
        # is attached and counting.
        before = chatiyp_small.metrics.snapshot()
        chatiyp_small.ask("Which country is AS2497 registered in?")
        after = chatiyp_small.metrics.snapshot()
        synth = lambda snap: snap["stages"].get("synthesis", {}).get("calls", 0)  # noqa: E731
        hits = lambda snap: snap["counters"].get("cache.hit", 0)  # noqa: E731
        assert after["counters"]["ask.requests"] == before["counters"].get("ask.requests", 0) + 1
        assert synth(after) + hits(after) == synth(before) + hits(before) + 1

    def test_to_dict_exposes_stage_timings(self, chatiyp_small):
        payload = chatiyp_small.ask("Which country is AS2497 registered in?").to_dict()
        assert "symbolic" in payload["diagnostics"]["stage_timings"]
        assert payload["diagnostics"]["route"] == "symbolic-first"
