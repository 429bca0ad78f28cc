"""End-to-end tests for the ChatIYP facade."""

import pytest

from repro.core import ChatIYP, ChatIYPConfig, render_response
from repro.core.prompts import (
    IYP_FEW_SHOT_EXAMPLES,
    answer_prompt,
    judge_prompt,
    rerank_prompt,
    text2cypher_prompt,
)
from repro.cypher import parse
from repro.iyp import AS2497_JP_PERCENT


@pytest.fixture(scope="module")
def reliable_bot(small_dataset):
    """ChatIYP with a perfectly reliable backbone (for deterministic asks)."""
    config = ChatIYPConfig(dataset_size="small", error_base=0.0, error_slope=0.0)
    return ChatIYP(dataset=small_dataset, config=config)


class TestPaperExample:
    def test_japan_population_example(self, reliable_bot):
        response = reliable_bot.ask(
            "What is the percentage of Japan's population in AS2497?"
        )
        assert str(AS2497_JP_PERCENT) in response.answer
        assert "POPULATION" in response.cypher
        assert response.retrieval_source == "text2cypher"
        assert not response.used_fallback

    def test_answer_and_cypher_both_returned(self, reliable_bot):
        response = reliable_bot.ask("Which country is AS15169 registered in?")
        assert response.answer
        assert response.cypher.startswith("MATCH")
        parse(response.cypher)


class TestAskBehaviour:
    def test_empty_question(self, reliable_bot):
        response = reliable_bot.ask("   ")
        assert response.retrieval_source == "none"
        assert "question" in response.answer.lower()

    def test_whitespace_stripped(self, reliable_bot):
        response = reliable_bot.ask("  Which country is AS2497 registered in?  ")
        assert response.question == "Which country is AS2497 registered in?"

    def test_vague_question_uses_fallback(self, reliable_bot):
        response = reliable_bot.ask("tell me something cool about the internet")
        assert response.used_fallback
        assert response.retrieval_source == "vector"
        assert response.context_snippets

    def test_determinism(self, reliable_bot):
        first = reliable_bot.ask("How many prefixes does AS2497 originate?")
        second = reliable_bot.ask("How many prefixes does AS2497 originate?")
        assert first.answer == second.answer
        assert first.cypher == second.cypher

    def test_diagnostics_include_generation_metadata(self, reliable_bot):
        response = reliable_bot.ask("Which country is AS2497 registered in?")
        assert response.diagnostics["generation"]["intent"] == "as_country"

    def test_to_dict_is_json_friendly(self, reliable_bot):
        import json

        response = reliable_bot.ask("Which tags is AS2497 categorized with?")
        payload = response.to_dict()
        json.dumps(payload)  # must not raise
        assert payload["question"]
        assert payload["rows"] is not None

    def test_run_cypher_escape_hatch(self, reliable_bot):
        result = reliable_bot.run_cypher(
            "MATCH (a:AS {asn: $asn}) RETURN a.name", asn=2497
        )
        assert "IIJ" in result.single()[0]

    def test_schema_property(self, reliable_bot):
        assert "(:AS" in reliable_bot.schema
        assert "POPULATION" in reliable_bot.schema


class TestConfigurationVariants:
    def test_no_reranker(self, small_dataset):
        config = ChatIYPConfig(
            dataset_size="small", use_reranker=False, error_base=0.0, error_slope=0.0
        )
        bot = ChatIYP(dataset=small_dataset, config=config)
        response = bot.ask("Which country is AS2497 registered in?")
        assert "Japan" in response.answer

    def test_no_vector_fallback(self, small_dataset):
        config = ChatIYPConfig(
            dataset_size="small", use_vector_fallback=False,
            error_base=0.0, error_slope=0.0,
        )
        bot = ChatIYP(dataset=small_dataset, config=config)
        response = bot.ask("what a lovely day for routing")
        assert not response.used_fallback
        assert response.retrieval_source == "text2cypher"

    def test_dataset_auto_loaded_from_config(self):
        bot = ChatIYP(config=ChatIYPConfig(dataset_size="small"))
        assert bot.store.node_count > 0


class TestTransparency:
    def test_render_success(self, reliable_bot):
        response = reliable_bot.ask("Which country is AS2497 registered in?")
        text = render_response(response)
        assert "Q:" in text and "A:" in text
        assert "Cypher:" in text
        assert "Rows:" in text

    def test_render_fallback_marks_failure(self, reliable_bot):
        response = reliable_bot.ask("any news from the backbone?")
        text = render_response(response, show_context=True)
        assert "Retrieval: vector" in text

    def test_render_without_cypher(self, reliable_bot):
        response = reliable_bot.ask("sing")
        text = render_response(response)
        assert "no translation" in text


class TestPrompts:
    def test_text2cypher_prompt_contains_chain(self):
        prompt = text2cypher_prompt("a question", "SCHEMA HERE")
        assert "[TASK: text2cypher]" in prompt
        assert "SCHEMA HERE" in prompt
        for question, cypher in IYP_FEW_SHOT_EXAMPLES:
            assert question in prompt
            assert cypher in prompt

    def test_few_shot_examples_are_valid_cypher(self):
        for _, cypher in IYP_FEW_SHOT_EXAMPLES:
            parse(cypher)

    def test_answer_prompt_sections(self):
        prompt = answer_prompt("q", '{"keys": [], "rows": []}', "- ctx")
        assert "[RESULT]" in prompt and "[CONTEXT]" in prompt

    def test_rerank_prompt_sections(self):
        prompt = rerank_prompt("q", [" p1 ", "p2\nmore"])
        assert prompt.startswith("[TASK: rerank]\n")
        assert "[QUERY]\nq\n" in prompt
        # every passage, stripped, in one JSON list on one line
        assert prompt.endswith('[PASSAGES]\n["p1", "p2\\nmore"]\n')

    def test_judge_prompt_sections(self):
        prompt = judge_prompt("q", "c", "r", "[\"5.3\"]")
        assert "[REFERENCE]" in prompt and "[CANDIDATE]" in prompt
        assert "[GOLD_FACTS]" in prompt
