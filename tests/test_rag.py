"""Tests for the RAG framework: retrievers, reranker, synthesizer, pipeline."""

import hashlib

import numpy as np
import pytest

from repro.cypher import CypherEngine
from repro.graph import introspect_schema
from repro.llm import ErrorModel, SimulatedLLM
from repro.nlp import Gazetteer
from repro.rag import (
    LLMReranker,
    NodeWithScore,
    ResponseSynthesizer,
    RetrievalResult,
    RetrieverQueryEngine,
    TextNode,
    TextToCypherRetriever,
    VectorContextRetriever,
    build_description_corpus,
)
from repro.core.prompts import answer_prompt, rerank_prompt, text2cypher_prompt


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


@pytest.fixture(scope="module")
def descriptions(small_store):
    """Graph node id -> its description in the default corpus."""
    return {
        metadata["graph_node_id"]: text
        for _, text, metadata in build_description_corpus(small_store)
    }


class TestDescribe:
    def test_describe_as_node(self, small_dataset, descriptions):
        text = descriptions[small_dataset.as_nodes[2497].node_id]
        assert "AS2497" in text
        assert "registered in" in text

    def test_describe_country_node(self, small_dataset, descriptions):
        text = descriptions[small_dataset.country_nodes["JP"].node_id]
        assert "Japan" in text

    def test_corpus_covers_interesting_labels(self, small_store):
        corpus = build_description_corpus(small_store)
        labels = {metadata["label"] for _, _, metadata in corpus}
        assert {"AS", "IXP", "Country", "Prefix", "DomainName"} <= labels

    def test_corpus_ids_unique(self, small_store):
        corpus = build_description_corpus(small_store)
        ids = [entry_id for entry_id, _, _ in corpus]
        assert len(ids) == len(set(ids))

    def test_neighbour_overflow_summarised(self, small_dataset, descriptions):
        # Some node has >4 neighbours of a kind -> "and N more" phrasing.
        texts = [descriptions[node.node_id] for node in small_dataset.store.nodes_by_label("AS")]
        assert any("and" in text and "more" in text for text in texts)


class TestTextToCypherRetriever:
    def test_success_path(self, symbolic):
        result = symbolic.retrieve("Which country is AS2497 registered in?")
        assert result.succeeded
        assert result.cypher is not None
        assert result.result.single()["country"] == "Japan"
        assert result.nodes and result.nodes[0].score == 1.0

    def test_translation_failure_reported(self, symbolic):
        result = symbolic.retrieve("please sing a sea shanty")
        assert result.error == "translation_failed"
        assert result.result is None and not result.nodes

    def test_execution_failure_reported(self, small_store, small_dataset, schema_text):
        broken_llm = SimulatedLLM(
            Gazetteer.from_dataset(small_dataset),
            seed=0,
            error_model=ErrorModel(base=1.0, slope=0.0, syntax_share=1.0),
        )
        retriever = TextToCypherRetriever(
            CypherEngine(small_store), broken_llm, schema_text, text2cypher_prompt
        )
        result = retriever.retrieve("Which country is AS2497 registered in?")
        assert result.error is not None
        assert "CypherSyntaxError" in result.error
        assert result.cypher is not None  # surfaced for transparency

    def test_generation_metadata_passthrough(self, symbolic):
        result = symbolic.retrieve("Which country is AS2497 registered in?")
        assert result.metadata["intent"] == "as_country"

    def test_rows_capped(self, symbolic):
        result = symbolic.retrieve("Which ASes are registered in the US?")
        assert len(result.nodes) <= 25

    def test_plan_not_captured_by_default(self, symbolic):
        result = symbolic.retrieve("Which country is AS2497 registered in?")
        assert "plan" not in result.metadata


class TestVectorRetriever:
    def test_retrieves_relevant_nodes(self, vector):
        result = vector.retrieve("Tell me about AS2497 the Japanese network")
        assert result.succeeded
        texts = " ".join(item.node.text for item in result.nodes)
        assert "AS2497" in texts

    def test_respects_top_k(self, small_store):
        retriever = VectorContextRetriever(small_store, top_k=3)
        result = retriever.retrieve("internet exchange in Japan")
        assert len(result.nodes) <= 3

    def test_scores_descending(self, vector):
        result = vector.retrieve("internet exchange points in Germany")
        scores = [item.score for item in result.nodes]
        assert scores == sorted(scores, reverse=True)

    def test_corpus_matrix_and_ids_are_pinned(self, vector):
        # sha256 of the small graph's corpus matrix bytes and of its entry
        # ids in row order, recorded before the index was made immutable:
        # every vector ranking follows from these two.
        index = vector.vector_store
        index.search("warm up", top_k=1)
        matrix = index._matrix
        ids = "\n".join(entry.entry_id for entry in index.entries())
        assert matrix.shape == (438, 256) and matrix.dtype == np.float64
        assert hashlib.sha256(matrix.tobytes()).hexdigest() == (
            "61b585f352833533c61db32c94e112b21b02f16363605155fc9af839a2134b2c"
        )
        assert hashlib.sha256(ids.encode()).hexdigest() == (
            "6717445393e3ebb4b79bedb73783acbcd1c28d0dfd65565eb32f812f93754180"
        )

    def test_build_tokenizes_each_document_once(self, small_store, monkeypatch):
        import sys

        from repro.nlp.tokenize import word_tokenize as original

        calls = []

        def counting(text):
            calls.append(text)
            return original(text)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "word_tokenize", None) is original:
                monkeypatch.setattr(module, "word_tokenize", counting)
        retriever = VectorContextRetriever(small_store)
        texts = [entry.text for entry in retriever.vector_store.entries()]
        assert len(texts) == 438
        assert calls == texts


class TestReranker:
    def _candidates(self, texts):
        return [
            NodeWithScore(TextNode(f"n{i}", text), 0.5) for i, text in enumerate(texts)
        ]

    def test_relevant_candidate_rises(self, reliable_llm):
        reranker = LLMReranker(reliable_llm, top_n=2, prompt_builder=rerank_prompt)
        candidates = self._candidates(
            ["bananas are yellow", "AS2497 is a member of JPNAP Tokyo", "rain tomorrow"]
        )
        reranked = reranker.rerank("Which IXPs is AS2497 a member of?", candidates)
        assert reranked[0].node.node_id == "n1"

    def test_top_n_enforced(self, reliable_llm):
        reranker = LLMReranker(reliable_llm, top_n=2, prompt_builder=rerank_prompt)
        reranked = reranker.rerank("q", self._candidates(["a", "b", "c", "d"]))
        assert len(reranked) == 2

    def test_duplicates_removed(self, reliable_llm):
        reranker = LLMReranker(reliable_llm, top_n=5, prompt_builder=rerank_prompt)
        node = TextNode("same", "text")
        reranked = reranker.rerank("q", [NodeWithScore(node, 1.0), NodeWithScore(node, 0.4)])
        assert len(reranked) == 1

    def test_max_candidates_cap(self, reliable_llm):
        reranker = LLMReranker(
            reliable_llm, top_n=50, max_candidates=3, prompt_builder=rerank_prompt
        )
        reranked = reranker.rerank("q", self._candidates([f"t{i}" for i in range(10)]))
        assert len(reranked) == 3


class TestSynthesizer:
    def test_structured_result_drives_answer(self, reliable_llm, symbolic):
        synthesizer = ResponseSynthesizer(reliable_llm, answer_prompt)
        retrieval = symbolic.retrieve("What is the percentage of Japan's population in AS2497?")
        answer = synthesizer.synthesize(
            "What is the percentage of Japan's population in AS2497?", retrieval
        )
        assert "5.3" in answer

    def test_context_fallback_answer(self, reliable_llm):
        synthesizer = ResponseSynthesizer(reliable_llm, answer_prompt)
        retrieval = RetrievalResult(
            nodes=[NodeWithScore(TextNode("x", "AS2497 is a Japanese ISP"), 0.9)],
            source="vector",
        )
        answer = synthesizer.synthesize("tell me about AS2497", retrieval)
        assert "AS2497" in answer

    def test_non_scalar_values_serialised(self, reliable_llm, symbolic):
        synthesizer = ResponseSynthesizer(reliable_llm, answer_prompt)
        retrieval = symbolic.retrieve("Which tags is AS2497 categorized with?")
        answer = synthesizer.synthesize("Which tags is AS2497 categorized with?", retrieval)
        assert isinstance(answer, str) and answer


class TestPipeline:
    @pytest.fixture()
    def pipeline(self, symbolic, vector, reliable_llm):
        return RetrieverQueryEngine(
            text2cypher=symbolic,
            vector=vector,
            reranker=LLMReranker(reliable_llm, top_n=4, prompt_builder=rerank_prompt),
            synthesizer=ResponseSynthesizer(reliable_llm, answer_prompt),
        )

    def test_symbolic_path(self, pipeline):
        response = pipeline.query("Which country is AS2497 registered in?")
        assert response.retrieval_source == "text2cypher"
        assert not response.used_fallback
        assert "Japan" in response.answer

    def test_fallback_on_translation_failure(self, pipeline):
        response = pipeline.query("what is interesting around here?")
        assert response.retrieval_source == "vector"
        assert response.used_fallback
        assert response.diagnostics["fallback_used"]

    def test_fallback_on_sparse_result(self, pipeline, small_dataset):
        # Ask about an AS with no IXP memberships -> empty rows -> fallback.
        member_counts = {
            asn: small_dataset.store.degree(node.node_id, "out", ["MEMBER_OF"])
            for asn, node in small_dataset.as_nodes.items()
        }
        lonely = next(asn for asn, count in member_counts.items() if count == 0)
        response = pipeline.query(f"Which IXPs is AS{lonely} a member of?")
        assert response.used_fallback
        assert response.diagnostics["sparse"] is True
        assert response.cypher is not None  # failed query still shown

    def test_no_fallback_configuration(self, symbolic, reliable_llm):
        engine = RetrieverQueryEngine(
            text2cypher=symbolic,
            vector=None,
            reranker=None,
            synthesizer=ResponseSynthesizer(reliable_llm, answer_prompt),
        )
        response = engine.query("what is interesting around here?")
        assert response.retrieval_source == "text2cypher"
        assert "could not" in response.answer.lower()

    def test_requires_synthesizer(self, symbolic):
        with pytest.raises(ValueError):
            RetrieverQueryEngine(text2cypher=symbolic, synthesizer=None)

    def test_result_attached_on_success(self, pipeline):
        response = pipeline.query("How many prefixes does AS2497 originate?")
        assert response.result is not None
        assert response.result.keys == ["prefixes"]
