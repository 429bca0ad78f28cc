"""Tests for pipeline logging and the bootstrap CI helper."""

import logging

import pytest

from repro.eval.stats import bootstrap_ci


class TestBootstrapCi:
    def test_interval_contains_mean_for_normalish_data(self):
        values = [0.4, 0.5, 0.6, 0.55, 0.45, 0.5, 0.52, 0.48]
        lo, hi = bootstrap_ci(values)
        mean = sum(values) / len(values)
        assert lo <= mean <= hi
        assert lo < hi

    def test_deterministic(self):
        values = [0.1, 0.9, 0.5, 0.3]
        assert bootstrap_ci(values) == bootstrap_ci(values)

    def test_interval_ordered_and_within_data_range(self):
        values = [0.1, 0.9, 0.5, 0.3, 0.7]
        lo, hi = bootstrap_ci(values, seed=1)
        assert min(values) <= lo <= hi <= max(values)

    def test_degenerate_inputs(self):
        assert bootstrap_ci([]) == (0.0, 0.0)
        assert bootstrap_ci([0.7]) == (0.7, 0.7)

    def test_constant_data_zero_width(self):
        lo, hi = bootstrap_ci([0.5] * 20)
        assert lo == hi == 0.5

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([0.1, 0.2], confidence=1.5)

    def test_wider_confidence_wider_interval(self):
        values = [i / 20 for i in range(20)]
        narrow = bootstrap_ci(values, confidence=0.5)
        wide = bootstrap_ci(values, confidence=0.99)
        assert wide[1] - wide[0] >= narrow[1] - narrow[0]

    def test_figure_2b_includes_ci_column(self, chatiyp_small):
        from repro.eval import EvaluationHarness, build_cyphereval, figure_2b_table

        questions = build_cyphereval(chatiyp_small.dataset, per_template=1)
        report = EvaluationHarness(chatiyp_small, questions).run()
        table = figure_2b_table(report)
        assert "95% CI" in table
        assert "[" in table


class TestPipelineLogging:
    @pytest.fixture(scope="class")
    def uncached_bot(self, small_dataset):
        """A bot of its own without an answer cache, so every ask runs the
        pipeline (the shared bot may already hold an answer from another
        test)."""
        from repro import ChatIYP, ChatIYPConfig

        config = ChatIYPConfig(dataset_size="small", answer_cache_size=0)
        return ChatIYP(dataset=small_dataset, config=config)

    def test_fallback_logged(self, uncached_bot, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.rag.pipeline"):
            uncached_bot.ask("tell me an interesting story please")
        assert any("falling back" in record.message for record in caplog.records)

    def test_generated_cypher_logged(self, uncached_bot, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.rag.text2cypher_retriever"):
            uncached_bot.ask("Which country is AS2497 registered in?")
        assert any("generated cypher" in record.message for record in caplog.records)

    def test_silent_at_default_level(self, chatiyp_small, caplog):
        with caplog.at_level(logging.WARNING):
            chatiyp_small.ask("Which country is AS2497 registered in?")
        assert not caplog.records
