"""Concurrency guarantees: single-flight coalescing, cross-thread asks
equal serial asks, and thread-safe vector retrieval."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import ChatIYP, ChatIYPConfig
from repro.embed.vector_store import VectorStore
from repro.eval.cyphereval import build_cyphereval
from repro.eval.harness import EvaluationHarness
from repro.nlp.tokenize import word_tokenize
from repro.parallel import SingleFlight
from repro.parallel import singleflight as sf
from repro.rag.vector_retriever import VectorContextRetriever


# ---------------------------------------------------------------------------
# SingleFlight primitive
# ---------------------------------------------------------------------------


class TestSingleFlight:
    def test_leader_then_follower(self):
        flights = SingleFlight()
        leader, flight = flights.begin("k")
        assert leader
        follower, same = flights.begin("k")
        assert not follower and same is flight

        done = {}

        def wait():
            status = flight.wait(5.0)
            done["status"], done["value"] = status, flight.value

        thread = threading.Thread(target=wait)
        thread.start()
        # Deterministically wait for the follower to park before settling.
        for _ in range(500):
            if flights.waiters("k"):
                break
            time.sleep(0.002)
        flights.finish(flight, value=42)
        thread.join(5.0)
        assert done == {"status": sf.OK, "value": 42}

    def test_finished_flight_is_unregistered_before_wakeup(self):
        flights = SingleFlight()
        _, flight = flights.begin("k")
        flights.finish(flight, value=1)
        leader_again, fresh = flights.begin("k")
        assert leader_again and fresh is not flight

    def test_leader_failure_propagates_as_failed(self):
        flights = SingleFlight()
        _, flight = flights.begin("k")
        flights.finish(flight, error=RuntimeError("boom"))
        assert flight.wait(0.1) == sf.FAILED

    def test_wait_timeout(self):
        flights = SingleFlight()
        _, flight = flights.begin("k")
        assert flight.wait(0.01) == sf.TIMEOUT

    def test_snapshot(self):
        flights = SingleFlight()
        flights.begin("a")
        flights.begin("a")
        snap = flights.snapshot()
        assert snap["in_flight"] == 1
        assert snap["led"] == 1
        assert snap["coalesced"] == 1


# ---------------------------------------------------------------------------
# Single-flight coalescing through ChatIYP.ask
# ---------------------------------------------------------------------------


@pytest.fixture()
def coalescing_bot(small_dataset):
    return ChatIYP(
        dataset=small_dataset,
        config=ChatIYPConfig(dataset_size="small", answer_cache_size=64),
    )


def _park_pipeline(bot, release):
    """Wrap the bot's pipeline so executions block until ``release`` is set,
    recording every execution."""
    executions = []
    real_query = bot.pipeline.query

    def parked_query(text, deadline=None):
        executions.append(text)
        assert release.wait(10.0), "test never released the pipeline"
        return real_query(text, deadline=deadline)

    bot.pipeline.query = parked_query
    return executions


class TestAskCoalescing:
    def test_identical_concurrent_questions_execute_once(self, coalescing_bot):
        bot = coalescing_bot
        question = "Which country is AS2497 registered in?"
        release = threading.Event()
        executions = _park_pipeline(bot, release)

        n = 6
        responses = [None] * n

        def ask(i):
            responses[i] = bot.ask(question)

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(n)]
        for thread in threads:
            thread.start()
        # Wait until the other N-1 requests are parked on the leader's
        # flight, then let the leader run: deterministic overlap.
        key = bot._request_key(question)
        for _ in range(2000):
            if bot.inflight.waiters(key) == n - 1:
                break
            time.sleep(0.002)
        assert bot.inflight.waiters(key) == n - 1
        release.set()
        for thread in threads:
            thread.join(15.0)

        assert executions == [question]  # one pipeline execution, ever
        answers = {response.answer for response in responses}
        assert len(answers) == 1  # N identical answers
        coalesced = [r for r in responses if r.diagnostics.get("coalesced")]
        assert len(coalesced) == n - 1
        counters = bot.metrics.snapshot()["counters"]
        assert counters["singleflight.coalesced"] == n - 1
        assert counters.get("singleflight.fallthrough", 0) == 0
        # MetricsRegistry stage aggregates agree: one synthesis run total.
        assert bot.metrics.snapshot()["stages"]["synthesis"]["calls"] == 1

    def test_distinct_concurrent_questions_are_not_coalesced(self, coalescing_bot):
        bot = coalescing_bot
        questions = [
            "Which country is AS2497 registered in?",
            "How many prefixes does AS2497 originate?",
        ]
        release = threading.Event()
        executions = _park_pipeline(bot, release)

        threads = [
            threading.Thread(target=bot.ask, args=(question,)) for question in questions
        ]
        for thread in threads:
            thread.start()
        for _ in range(2000):
            if len(executions) == 2:
                break
            time.sleep(0.002)
        release.set()
        for thread in threads:
            thread.join(15.0)

        assert sorted(executions) == sorted(questions)
        counters = bot.metrics.snapshot()["counters"]
        assert counters.get("singleflight.coalesced", 0) == 0

    def test_follower_copies_do_not_share_mutable_state(self, coalescing_bot):
        bot = coalescing_bot
        question = "Which country is AS2497 registered in?"
        release = threading.Event()
        _park_pipeline(bot, release)
        release.set()
        first = bot.ask(question)
        second = bot.ask(question)  # cache hit: same sharing rules
        second.diagnostics["mutated"] = True
        second.context_snippets.append("junk")
        assert "mutated" not in first.diagnostics
        assert "junk" not in first.context_snippets

    def test_coalescing_disabled_by_config(self, small_dataset):
        bot = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(dataset_size="small", coalesce_inflight=False),
        )
        assert bot.inflight is None
        assert bot.serving_snapshot()["inflight"] is None
        assert bot.ask("Which country is AS2497 registered in?").answer


# ---------------------------------------------------------------------------
# Cross-thread asks equal serial asks
# ---------------------------------------------------------------------------


def _untimed(response):
    body = response.to_dict()
    body["diagnostics"].pop("stage_timings")
    return body


class TestCrossThreadAsks:
    @pytest.fixture(scope="class")
    def questions(self, small_dataset):
        questions = [
            q.question for q in build_cyphereval(small_dataset, seed=7, per_template=1)
        ]
        distinct = list(dict.fromkeys(questions))[:6]
        assert len(distinct) == 6
        return distinct

    def _bot(self, small_dataset):
        return ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(dataset_size="small", answer_cache_size=0),
        )

    def test_threaded_asks_match_serial(self, small_dataset, questions):
        serial_bot = self._bot(small_dataset)
        serial = [_untimed(serial_bot.ask(question)) for question in questions]

        bot = self._bot(small_dataset)
        assert bot.answer_cache is None
        start = threading.Barrier(len(questions))
        bodies = [None] * len(questions)
        errors = []

        def ask(index):
            try:
                start.wait(10.0)
                bodies[index] = _untimed(bot.ask(questions[index]))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=ask, args=(i,)) for i in range(len(questions))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert errors == []
        assert bodies == serial


class TestEvaluationHarness:
    def test_evaluate_alias_matches_run(self, small_dataset):
        questions = build_cyphereval(small_dataset, seed=7, per_template=1)[:4]

        def harness():
            bot = ChatIYP(
                dataset=small_dataset, config=ChatIYPConfig(dataset_size="small")
            )
            return EvaluationHarness(bot, questions)

        via_run = harness().run(limit=3)
        via_evaluate = harness().evaluate(limit=3)
        assert len(via_evaluate) == 3
        assert [e.answer for e in via_evaluate.evaluations] == [
            e.answer for e in via_run.evaluations
        ]
        assert via_evaluate.scores("bleu") == via_run.scores("bleu")


# ---------------------------------------------------------------------------
# VectorStore thread safety + retriever token-set cache
# ---------------------------------------------------------------------------


class TestVectorStoreConcurrency:
    def test_concurrent_searches_agree(self):
        store = VectorStore([(f"seed-{i}", f"entry about topic {i}", {}) for i in range(64)])
        expected = store.search("entry about topic 3", top_k=5)
        assert expected[0], "indexed corpus must keep matching"
        results = []

        def reader():
            for _ in range(50):
                results.append(store.search("entry about topic 3", top_k=5))

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(10.0)
        assert len(results) == 200
        assert all(hits == expected for hits in results)

    def test_entries_snapshot_is_stable(self):
        corpus = [("a", "text", {"kind": "x"})]
        store = VectorStore(corpus)
        corpus.append(("b", "more", {}))
        corpus[0][2]["kind"] = "changed"
        assert [entry.entry_id for entry in store.entries()] == ["a"]
        assert store.entries()[0].metadata == {"kind": "x"}
        assert len(store) == 1


class TestTokenSetCache:
    def test_cached_scores_match_recomputed_scores(self, small_dataset):
        retriever = VectorContextRetriever(small_dataset.store, top_k=8)
        index = retriever.vector_store
        # The token store, filled at index time, holds each row's distinct
        # tokens and nothing else.
        token_sets = [frozenset(word_tokenize(entry.text)) for entry in index.entries()]
        for row, tokens in enumerate(token_sets):
            assert index.token_overlap(tokens, [row]) == [len(tokens)]
        everything = frozenset().union(*token_sets)
        rows = range(len(token_sets))
        assert index.token_overlap(everything, rows) == list(map(len, token_sets))
        assert not any(index.token_overlap(["zzz-not-a-token", "", "two tokens"], rows))

        queries = [
            "Which country is AS2497 registered in?",
            "Japanese networks at internet exchanges",
            "prefixes originated by AS15169",
            "sing me a sea shanty",
        ] + [item.question for item in build_cyphereval(small_dataset, seed=7)]
        for query in queries:
            result = retriever.retrieve(query)
            # Recompute the result as the code before the token store did:
            # word_tokenize per hit, every boosted score rounded, a stable
            # sort of all hits, then the first top_k.
            from repro.nlp.tokenize import STOPWORDS

            distinctive = {
                token
                for token in word_tokenize(query)
                if token not in STOPWORDS
                and (len(token) > 3 or any(c.isdigit() for c in token))
            }
            rows, scores = retriever.vector_store.search(
                query, top_k=retriever.top_k * retriever._OVERSAMPLE, min_score=0.02
            )
            recomputed = []
            for row, score in zip(rows, scores):
                entry = index.entries()[row]
                if distinctive:
                    overlap = len(distinctive & set(word_tokenize(entry.text))) / len(distinctive)
                    score += retriever._LEXICAL_WEIGHT * overlap
                recomputed.append((entry.entry_id, round(score, 6)))
            recomputed.sort(key=lambda pair: -pair[1])
            expected = recomputed[: retriever.top_k]
            actual = [(item.node.node_id, item.score) for item in result.nodes]
            assert actual == expected, query
