"""Tests for the verbalizer, judge, reranker scorer and SimulatedLLM routing."""

import json
import random

import pytest

from repro.cypher.result import Record, ResultSet
from repro.llm import (
    AnswerJudge,
    RelevanceScorer,
    ResultVerbalizer,
    SimulatedLLM,
    extract_facts,
)


def make_result(keys, rows):
    return ResultSet(keys, [Record(keys, list(row)) for row in rows])


class TestVerbalizer:
    @pytest.fixture()
    def verbalizer(self):
        return ResultVerbalizer(seed=0)

    def test_empty_result(self, verbalizer):
        text = verbalizer.verbalize("q", make_result(["x"], []))
        assert "no" in text.lower() or "not" in text.lower()

    def test_single_scalar_mentions_value_and_column(self, verbalizer):
        text = verbalizer.verbalize("q", make_result(["percent"], [[5.3]]))
        assert "5.3" in text

    def test_single_column_list(self, verbalizer):
        text = verbalizer.verbalize("q", make_result(["ixp"], [["AMS-IX"], ["LINX"]]))
        assert "AMS-IX" in text and "LINX" in text

    def test_long_list_truncated_with_count(self, verbalizer):
        rows = [[f"item{i}"] for i in range(30)]
        text = verbalizer.verbalize("q", make_result(["name"], rows))
        assert "more" in text

    def test_long_single_column_matches_render_everything_oracle(self, monkeypatch):
        from repro.llm import verbalize as vb

        def oracle(verbalizer, question, result):
            # The answer as built by rendering every row before slicing.
            rng = verbalizer._rng(question)
            column = vb._humanize(result.keys[0])
            values = [vb.render_value(record[0]) for record in result.records]
            shown = values[: vb._MAX_LIST_ITEMS]
            more = len(values) - len(shown)
            joined = vb._join_values(shown)
            suffix = f" and {more} more" if more > 0 else ""
            return rng.choice(
                [
                    f"The {column}s are: {joined}{suffix}.",
                    f"There are {len(values)} results: {joined}{suffix}.",
                    f"IYP lists the following {column}s: {joined}{suffix}.",
                ]
            )

        for seed in range(6):
            rng = random.Random(seed)
            pool = [None, True, 2.5, "AS", [1, "x"], {"k": 1}]
            rows = [
                [rng.choice(pool + [rng.randint(0, 10**6), f"name-{i}"])]
                for i in range(1_000 + rng.randint(0, 600))
            ]
            result = make_result(["dep.name"], rows)
            verbalizer = ResultVerbalizer(seed=seed)
            question = f"which networks, seed {seed}?"
            expected = oracle(verbalizer, question, result)

            rendered = []
            real_render = vb.render_value
            monkeypatch.setattr(
                vb, "render_value", lambda value: rendered.append(value) or real_render(value)
            )
            assert verbalizer.verbalize(question, result) == expected
            monkeypatch.undo()
            assert len(rendered) == vb._MAX_LIST_ITEMS

    def test_single_row_multi_column(self, verbalizer):
        text = verbalizer.verbalize("q", make_result(["asn", "name"], [[2497, "IIJ"]]))
        assert "2497" in text and "IIJ" in text

    def test_multi_row_multi_column(self, verbalizer):
        rows = [[1, "a"], [2, "b"], [3, "c"]]
        text = verbalizer.verbalize("q", make_result(["asn", "name"], rows))
        assert "3" in text  # row count mentioned

    def test_deterministic_per_question(self, verbalizer):
        result = make_result(["v"], [[1]])
        assert verbalizer.verbalize("q", result) == verbalizer.verbalize("q", result)

    def test_different_seeds_vary_phrasing_somewhere(self):
        result = make_result(["country"], [["Japan"]])
        questions = [f"where is AS{i}?" for i in range(12)]
        a = [ResultVerbalizer(seed=0).verbalize(q, result) for q in questions]
        b = [ResultVerbalizer(seed=1).verbalize(q, result) for q in questions]
        assert a != b  # facts identical, phrasing differs at least once

    def test_context_fallback_mentions_snippets(self, verbalizer):
        text = verbalizer.verbalize_context("q", ["AS2497 is a network", "JPNAP is an IXP"])
        assert "AS2497" in text

    def test_context_fallback_empty(self, verbalizer):
        assert "could not" in verbalizer.verbalize_context("q", []).lower()

    def test_humanizes_column_names(self, verbalizer):
        text = verbalizer.verbalize("q", make_result(["c.country_code"], [["JP"]]))
        assert "country code" in text.lower() or "JP" in text


class TestFactExtraction:
    def test_numbers(self):
        assert "5.3" in extract_facts("The share is 5.3 percent")
        assert "42" in extract_facts("There are 42 prefixes")

    def test_number_normalisation(self):
        assert extract_facts("5.0 items") & {"5"}

    def test_asn_and_prefix(self):
        facts = extract_facts("AS2497 originates 203.0.113.0/24")
        assert "as2497" in facts
        assert "203.0.113.0/24" in facts

    def test_domains(self):
        assert "cloudnet.io" in extract_facts("cloudnet.io ranks 17th")

    def test_proper_names(self):
        facts = extract_facts("It is managed by Internet Initiative Japan.")
        assert "internet initiative japan" in facts

    def test_sentence_initial_stopword_not_a_fact(self):
        facts = extract_facts("The answer is unknown.")
        assert "the" not in facts


class TestJudge:
    @pytest.fixture()
    def judge(self):
        return AnswerJudge()

    def test_correct_answer_scores_high(self, judge):
        verdict = judge.judge(
            question="What is the percentage of Japan's population in AS2497?",
            candidate="The percent is 5.3.",
            reference="According to the IYP graph, the percent is 5.3.",
            gold_facts={"5.3"},
        )
        assert verdict.score > 0.8
        assert verdict.rating >= 4

    def test_wrong_number_scores_low(self, judge):
        verdict = judge.judge(
            question="What is the percentage of Japan's population in AS2497?",
            candidate="The percent is 87.1.",
            reference="The percent is 5.3.",
            gold_facts={"5.3"},
        )
        assert verdict.score < 0.35

    def test_non_answer_scores_very_low_when_gold_exists(self, judge):
        verdict = judge.judge(
            question="Which country is AS2497 in?",
            candidate="I could not find any matching information in the IYP graph.",
            reference="The country is Japan.",
            gold_facts={"japan"},
        )
        assert verdict.score < 0.2

    def test_honest_negative_scores_high_when_gold_empty(self, judge):
        verdict = judge.judge(
            question="Which IXPs is AS99 a member of?",
            candidate="No matching data was found in the Internet Yellow Pages.",
            reference="I could not find any matching information in the IYP graph.",
            gold_facts=set(),
        )
        assert verdict.score > 0.6

    def test_rephrased_correct_beats_fluent_wrong(self, judge):
        reference = "The organization is Smart Connect."
        correct = judge.judge(
            "What organization manages AS2516?",
            "AS2516 is operated by Smart Connect.",
            reference,
            gold_facts={"smart connect"},
        )
        wrong = judge.judge(
            "What organization manages AS2516?",
            "AS2516 is operated by Giant Cables Ltd.",
            reference,
            gold_facts={"smart connect"},
        )
        assert correct.score > wrong.score

    def test_breakdown_fields_in_range(self, judge):
        verdict = judge.judge("q", "The value is 3.", "The value is 3.", {"3"})
        for value in (verdict.factuality, verdict.relevance, verdict.informativeness):
            assert 0.0 <= value <= 1.0
        assert 1 <= verdict.rating <= 5


class TestRelevanceScorer:
    def test_relevant_beats_irrelevant(self):
        scorer = RelevanceScorer()
        query = "Which IXPs is AS2497 a member of?"
        relevant = "AS2497 is a member of JPNAP Tokyo and JPIX"
        irrelevant = "The croissant was invented in Vienna"
        assert scorer.score(query, relevant) > scorer.score(query, irrelevant)

    def test_score_range(self):
        scorer = RelevanceScorer()
        assert 0.0 <= scorer.score("a b c", "a b c") <= 10.0
        assert scorer.score("anything", "") == 0.0

    def test_rank_sorted_and_stable(self):
        scorer = RelevanceScorer()
        ranked = scorer.rank("alpha beta", ["gamma", "alpha beta", "alpha"])
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        assert ranked[0][0] == 1


class TestSimulatedLLMRouting:
    @pytest.fixture()
    def llm(self, small_dataset):
        from repro.nlp import Gazetteer

        return SimulatedLLM(Gazetteer.from_dataset(small_dataset), seed=0)

    def test_text2cypher_route(self, llm):
        prompt = "[TASK: text2cypher]\n[QUESTION]\nWhich country is AS2497 registered in?\n"
        completion = llm.complete(prompt)
        assert completion.metadata["task"] == "text2cypher"
        assert "MATCH" in completion.text

    def test_text2cypher_untranslatable(self, llm):
        prompt = "[TASK: text2cypher]\n[QUESTION]\nsing me a song\n"
        completion = llm.complete(prompt)
        assert completion.text == "UNABLE_TO_TRANSLATE"
        assert completion.metadata["cypher"] is None

    def test_answer_route_with_structured_result(self, llm):
        payload = json.dumps({"keys": ["percent"], "rows": [[5.3]]})
        prompt = f"[TASK: answer]\n[QUESTION]\nwhat share?\n[RESULT]\n{payload}\n"
        completion = llm.complete(prompt)
        assert "5.3" in completion.text
        assert completion.metadata["mode"] == "structured"

    def test_answer_route_with_context(self, llm):
        prompt = (
            "[TASK: answer]\n[QUESTION]\nwhat about AS2497?\n"
            "[CONTEXT]\n- AS2497 is a Japanese ISP\n- It peers widely\n"
        )
        completion = llm.complete(prompt)
        assert completion.metadata["mode"] == "context"
        assert "AS2497" in completion.text

    def test_answer_route_with_bad_json_falls_back(self, llm):
        prompt = "[TASK: answer]\n[QUESTION]\nq\n[RESULT]\nnot json at all\n"
        completion = llm.complete(prompt)
        assert completion.metadata["mode"] == "context"

    def test_rerank_route(self, llm):
        prompt = (
            "[TASK: rerank]\n[QUERY]\nAS2497 members\n"
            '[PASSAGES]\n["AS2497 is a member of JPNAP", "rain tomorrow", ""]\n'
        )
        completion = llm.complete(prompt)
        assert completion.metadata["task"] == "rerank"
        scores = completion.metadata["scores"]
        assert len(scores) == 3 and all(0.0 <= score <= 10.0 for score in scores)
        assert scores[0] > scores[1] and scores[2] == 0.0
        assert completion.text.split() == [str(score) for score in scores]

    def test_judge_route(self, llm):
        prompt = (
            "[TASK: judge]\n[QUESTION]\nhow many?\n[REFERENCE]\nThe count is 7.\n"
            "[CANDIDATE]\nThe count is 7.\n[GOLD_FACTS]\n[\"7\"]\n"
        )
        completion = llm.complete(prompt)
        assert completion.metadata["task"] == "judge"
        assert completion.metadata["score"] > 0.5

    def test_unknown_task(self, llm):
        completion = llm.complete("[TASK: dance]\n[QUESTION]\nx\n")
        assert "error" in completion.metadata

    def test_untagged_prompt_treated_as_answer(self, llm):
        completion = llm.complete("[QUESTION]\nhello\n[CONTEXT]\n- a fact\n")
        assert completion.metadata["task"] == "answer"

    def test_model_name_mentions_seed(self, llm):
        assert "seed=0" in llm.model_name

    def test_chat_shim(self, llm):
        from repro.llm import ChatMessage

        completion = llm.chat(
            [ChatMessage("user", '[TASK: rerank]\n[QUERY]\na\n[PASSAGES]\n["a"]\n')]
        )
        assert completion.metadata["task"] == "rerank"
