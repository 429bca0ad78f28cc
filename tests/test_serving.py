"""Unit tests for the serving-hardening layer (`repro.serving`).

Clock-dependent behaviour (deadlines, breaker cooldowns) is driven by a
fake monotonic clock, so every test here is deterministic and instant.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import ChatIYP, ChatIYPConfig
from repro.eval import build_cyphereval
from repro.rag.errors import CircuitOpen, DeadlineExceeded
from repro.rag.types import RetrievalResult
from repro.serving import (
    AdmissionController,
    AnswerCache,
    BreakerState,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    normalize_question,
)


class FakeClock:
    """Manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Deadline


class TestDeadline:
    def test_counts_down_and_expires(self):
        clock = FakeClock()
        deadline = Deadline.start(100.0, clock=clock)
        assert not deadline.expired
        assert deadline.remaining_ms() == pytest.approx(100.0)
        clock.advance(0.06)
        assert deadline.remaining_ms() == pytest.approx(40.0)
        clock.advance(0.05)
        assert deadline.expired
        assert deadline.remaining_ms() == 0.0

    def test_rejects_non_positive_budget(self):
        # A NaN budget would never expire: ``clock() >= nan`` is always False.
        for budget in (0, -5, float("nan"), float("inf"), 10**400):
            with pytest.raises(ValueError):
                Deadline(budget)


# ---------------------------------------------------------------------------
# AnswerCache


class TestAnswerCache:
    def test_normalization_shares_entries(self):
        assert normalize_question("  What   IS  X? ") == "what is x?"
        key_a = AnswerCache.key("What is X?", 0)
        key_b = AnswerCache.key("  what IS   x?", 0)
        assert key_a == key_b

    def test_fingerprint_and_version_partition_entries(self):
        # Each ChatIYP owns its cache, so the key carries no config
        # fingerprint: the graph version alone partitions a question.
        assert AnswerCache.key("q", 0) == ("q", 0)
        assert AnswerCache.key("q", 0) != AnswerCache.key("q", 1)

    def test_lru_eviction_and_counters(self):
        cache = AnswerCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b" (least recent)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["evictions"] == 1
        assert stats["hits"] == 3
        assert stats["misses"] == 1
        assert 0.0 < stats["hit_rate"] < 1.0

    def test_concurrent_hammering_is_consistent(self):
        cache = AnswerCache(capacity=64)
        errors = []

        def worker(tid):
            try:
                for i in range(200):
                    cache.put((tid, i % 32), i)
                    cache.get((tid, (i + 1) % 32))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 200
        assert len(cache) <= 64


# ---------------------------------------------------------------------------
# CircuitBreaker


class TestCircuitBreaker:
    def make(self, clock, threshold=3, reset_ms=1000.0, transitions=None):
        on_transition = None
        if transitions is not None:
            on_transition = lambda old, new: transitions.append((old, new))  # noqa: E731
        return CircuitBreaker(
            failure_threshold=threshold,
            reset_after_ms=reset_ms,
            clock=clock,
            on_transition=on_transition,
        )

    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        transitions = []
        breaker = self.make(clock, transitions=transitions)
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert transitions == [(BreakerState.CLOSED, BreakerState.OPEN)]

    def test_success_resets_failure_count(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.1)  # past the 1000 ms cooldown
        assert breaker.allow()  # the single half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow()  # second caller refused while probing
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()  # cooldown restarted
        assert breaker.snapshot()["trips"] == 2

    def test_neutral_outcome_releases_probe_slot(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_neutral()  # e.g. a translation miss: no signal
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()  # probe slot is free again


# ---------------------------------------------------------------------------
# AdmissionController


class TestAdmissionController:
    def test_sheds_beyond_queue_depth(self):
        controller = AdmissionController(
            max_concurrency=1, max_queue_depth=0, queue_timeout_s=0.05
        )
        assert controller.acquire()
        assert not controller.acquire()  # queue full (depth 0): immediate shed
        controller.release()
        assert controller.acquire()
        controller.release()
        snap = controller.snapshot()
        assert snap["accepted"] == 2
        assert snap["shed"] == 1

    def test_queued_request_gets_slot_on_release(self):
        controller = AdmissionController(
            max_concurrency=1, max_queue_depth=4, queue_timeout_s=5.0
        )
        assert controller.acquire()
        got = []

        def waiter():
            got.append(controller.acquire())

        thread = threading.Thread(target=waiter)
        thread.start()
        # Let the waiter actually enter the queue before releasing.
        for _ in range(100):
            if controller.snapshot()["waiting"] == 1:
                break
            threading.Event().wait(0.005)
        controller.release()
        thread.join(timeout=5)
        assert got == [True]
        controller.release()

    def test_queue_timeout_sheds(self):
        controller = AdmissionController(
            max_concurrency=1, max_queue_depth=4, queue_timeout_s=0.02
        )
        assert controller.acquire()
        assert not controller.acquire()  # times out waiting
        assert controller.snapshot()["shed"] == 1
        controller.release()

    def test_release_without_acquire_raises(self):
        controller = AdmissionController(max_concurrency=1)
        with pytest.raises(RuntimeError):
            controller.release()

    def test_slot_context_manager(self):
        controller = AdmissionController(max_concurrency=1, max_queue_depth=0)
        with controller.slot() as admitted:
            assert admitted
            with controller.slot(timeout=0) as nested:
                assert not nested
        assert controller.snapshot()["active"] == 0


# ---------------------------------------------------------------------------
# RetryPolicy


class TestRetryPolicy:
    def test_retries_then_succeeds(self):
        sleeps = []
        policy = RetryPolicy(attempts=3, backoff_ms=10.0, seed=1, sleep=sleeps.append)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        assert policy.run(flaky) == "ok"
        assert calls["n"] == 3
        assert policy.retries == 2
        assert len(sleeps) == 2
        assert all(s > 0 for s in sleeps)
        assert sleeps[1] > sleeps[0] * 0.5  # exponential-ish despite jitter

    def test_exhausted_attempts_reraise(self):
        policy = RetryPolicy(attempts=2, backoff_ms=1.0, sleep=lambda s: None)

        def always_fails():
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            policy.run(always_fails)
        assert policy.retries == 1

    def test_expired_deadline_stops_retrying(self):
        clock = FakeClock()
        deadline = Deadline.start(10.0, clock=clock)
        clock.advance(1.0)
        policy = RetryPolicy(attempts=5, backoff_ms=1.0, sleep=lambda s: None)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            raise OSError("transient")

        with pytest.raises(OSError):
            policy.run(flaky, deadline=deadline)
        assert calls["n"] == 1  # no retry budget left

    def test_jitter_is_seeded(self):
        sleeps_a, sleeps_b = [], []
        for sink in (sleeps_a, sleeps_b):
            policy = RetryPolicy(attempts=4, backoff_ms=10.0, seed=7, sleep=sink.append)
            with pytest.raises(OSError):
                policy.run(lambda: (_ for _ in ()).throw(OSError("x")))
        assert sleeps_a == sleeps_b

    def test_backoff_capped_at_remaining_deadline(self):
        # backoff_ms far exceeds the budget: every retry sleep must be cut
        # to the remaining budget, never past it, and each cap is counted
        # and reported through the hook.
        clock = FakeClock()
        deadline = Deadline.start(100.0, clock=clock)
        sleeps = []
        capped_hook = {"n": 0}

        def hook():
            capped_hook["n"] += 1

        policy = RetryPolicy(
            attempts=3,
            backoff_ms=10_000.0,
            jitter=0.0,
            sleep=sleeps.append,
            on_deadline_capped=hook,
        )
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        assert policy.run(flaky, deadline=deadline) == "ok"
        assert policy.retries == 2
        # both sleeps were cut to exactly the (un-advanced) remaining 100 ms
        assert sleeps == [0.1, 0.1]
        assert policy.deadline_capped == 2
        assert capped_hook["n"] == 2

    def test_uncapped_backoff_does_not_count(self):
        clock = FakeClock()
        deadline = Deadline.start(60_000.0, clock=clock)
        policy = RetryPolicy(
            attempts=2, backoff_ms=1.0, jitter=0.0, sleep=lambda s: None
        )
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise OSError("transient")
            return "ok"

        assert policy.run(flaky, deadline=deadline) == "ok"
        assert policy.deadline_capped == 0

    def test_capping_hook_errors_are_swallowed(self):
        clock = FakeClock()
        deadline = Deadline.start(10.0, clock=clock)

        def exploding_hook():
            raise RuntimeError("observer bug")

        policy = RetryPolicy(
            attempts=2,
            backoff_ms=10_000.0,
            jitter=0.0,
            sleep=lambda s: None,
            on_deadline_capped=exploding_hook,
        )
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise OSError("transient")
            return "ok"

        assert policy.run(flaky, deadline=deadline) == "ok"
        assert policy.deadline_capped == 1


# ---------------------------------------------------------------------------
# Pipeline integration: degradation, breaker reroute, caching


@pytest.fixture(scope="module")
def hardened_bot(small_dataset):
    """A ChatIYP with the breaker armed and a small cache (module-private)."""
    return ChatIYP(
        dataset=small_dataset,
        config=ChatIYPConfig(
            dataset_size="small",
            breaker_failure_threshold=3,
            answer_cache_size=16,
        ),
    )


class TestDeadlineDegradation:
    def test_blown_deadline_degrades_to_partial_answer(self, small_dataset):
        bot = ChatIYP(
            dataset=small_dataset, config=ChatIYPConfig(dataset_size="small")
        )
        response = bot.ask(
            "Which country is AS2497 registered in?", deadline_ms=1e-6
        )
        degraded = response.diagnostics.get("degraded", [])
        assert "symbolic_skipped_deadline" in degraded
        assert "synthesis_partial_deadline" in degraded
        assert response.retrieval_source == "vector"  # cheapest viable route
        assert response.answer  # still answers, never hangs
        assert response.to_dict()["diagnostics"]["degraded"] == degraded
        # degraded.* counters reached the registry
        counters = bot.metrics.snapshot()["counters"]
        assert counters.get("degraded.synthesis_partial_deadline", 0) >= 1

    def test_degraded_answers_are_not_cached(self, small_dataset):
        bot = ChatIYP(
            dataset=small_dataset, config=ChatIYPConfig(dataset_size="small")
        )
        question = "Which country is AS15169 registered in?"
        degraded = bot.ask(question, deadline_ms=1e-6)
        assert degraded.diagnostics.get("degraded")
        full = bot.ask(question)
        assert not full.diagnostics.get("degraded")
        assert not full.diagnostics.get("cache_hit")

    def test_generous_deadline_changes_nothing(self, small_dataset):
        bot = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(dataset_size="small", answer_cache_size=0),
        )
        question = "Which country is AS2497 registered in?"
        unbounded = bot.ask(question)
        generous = bot.ask(question, deadline_ms=60_000.0)
        assert generous.answer == unbounded.answer
        assert not generous.diagnostics.get("degraded")


class TestBreakerReroute:
    def _force_execution_failures(self, bot, monkeypatch):
        retriever = bot.pipeline.text2cypher

        def failing_retrieve(question, deadline=None):
            return RetrievalResult(
                source="text2cypher",
                cypher="MATCH (broken",
                error="CypherRuntimeError: engine exploded",
            )

        monkeypatch.setattr(retriever, "retrieve", failing_retrieve)

    def test_breaker_trips_and_reroutes_to_vector(self, small_dataset, monkeypatch):
        bot = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(
                dataset_size="small",
                breaker_failure_threshold=3,
                answer_cache_size=0,
            ),
        )
        self._force_execution_failures(bot, monkeypatch)
        questions = [f"Which country is AS{asn} registered in?" for asn in
                     (2497, 15169, 13335, 3356, 1299)]
        responses = [bot.ask(q) for q in questions]
        # First three fall back on their own failure; from the fourth on
        # the breaker is open and skips the symbolic attempt entirely.
        assert bot.breaker.state is BreakerState.OPEN
        rerouted = responses[-1]
        assert "symbolic_skipped_breaker_open" in rerouted.diagnostics["degraded"]
        assert rerouted.retrieval_source == "vector"
        assert rerouted.answer
        counters = bot.metrics.snapshot()["counters"]
        assert counters.get("breaker.open", 0) >= 1
        assert counters.get("degraded.symbolic_skipped_breaker_open", 0) >= 1
        assert counters.get("error.circuit_open", 0) >= 1

    def test_breaker_recovers_after_cooldown(self, small_dataset, monkeypatch):
        bot = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(
                dataset_size="small",
                breaker_failure_threshold=2,
                breaker_reset_ms=0.0,  # instant cooldown: next ask is the probe
                answer_cache_size=0,
            ),
        )
        retriever = bot.pipeline.text2cypher
        real_retrieve = retriever.retrieve
        self._force_execution_failures(bot, monkeypatch)
        bot.ask("Which country is AS2497 registered in?")
        bot.ask("Which country is AS15169 registered in?")
        assert bot.breaker.state is BreakerState.OPEN
        # Heal the engine; the half-open probe should close the breaker.
        monkeypatch.setattr(retriever, "retrieve", real_retrieve)
        response = bot.ask("Which country is AS13335 registered in?")
        assert bot.breaker.state is BreakerState.CLOSED
        assert "symbolic_skipped_breaker_open" not in (
            response.diagnostics.get("degraded") or []
        )

    def test_translation_misses_do_not_trip_breaker(self, small_dataset):
        bot = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(
                dataset_size="small",
                breaker_failure_threshold=2,
                answer_cache_size=0,
            ),
        )
        for _ in range(4):
            bot.ask("please sing a sea shanty about the weather")
        assert bot.breaker.state is BreakerState.CLOSED


    def test_unparsable_generated_cypher_does_not_trip_breaker(self, small_dataset):
        # The simulated backbone sends text that fails to parse on about 8%
        # of asks. Five such questions in a row, then a well-formed one.
        probe = ChatIYP(dataset=small_dataset, config=ChatIYPConfig(dataset_size="small"))
        gold = build_cyphereval(small_dataset, seed=7)
        unparsable = []
        for item in gold:
            error = probe.pipeline.query(item.question).diagnostics.get("symbolic_error")
            if (error or "").startswith(("CypherSyntaxError:", "UnsupportedWrite:")):
                unparsable.append(item.question)
            if len(unparsable) == 5:
                break
        well_formed = next(item.question for item in gold if item.template == "country_of_as")
        bot = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(
                dataset_size="small",
                deadline_ms=1000.0,
                breaker_failure_threshold=5,
                answer_cache_size=256,
            ),
        )
        for question in unparsable:
            error_class = bot.ask(question).diagnostics["error_class"]
            assert error_class["type"] == "ExecutionError"
            assert error_class["message"].startswith("CypherSyntaxError:")
        assert bot.breaker.state is BreakerState.CLOSED
        response = bot.ask(well_formed)
        assert "symbolic_skipped_breaker_open" not in (response.diagnostics.get("degraded") or [])
        assert response.retrieval_source == "text2cypher"


class TestAnswerCacheIntegration:
    def test_hit_returns_equal_answer_and_marks_diagnostics(self, hardened_bot):
        question = "How many prefixes does AS2497 originate?"
        first = hardened_bot.ask(question)
        second = hardened_bot.ask(question)
        assert second.answer == first.answer
        assert second.diagnostics.get("cache_hit") is True
        assert second.to_dict()["diagnostics"]["cache_hit"] is True
        assert first.diagnostics.get("cache_hit") is None

    def test_hit_is_mutation_safe(self, hardened_bot):
        question = "What organization manages AS2497?"
        hardened_bot.ask(question)
        hit = hardened_bot.ask(question)
        hit.diagnostics["stage_timings"]["synthesis"] = -1.0
        hit.context_snippets.append("junk")
        fresh = hardened_bot.ask(question)
        assert fresh.diagnostics["stage_timings"].get("synthesis", 0) != -1.0
        assert "junk" not in fresh.context_snippets

    def test_graph_mutation_invalidates(self, small_dataset):
        # Private store copy: mutating the session-scoped graph would
        # corrupt every other test.
        from repro.iyp import IYPConfig, generate_iyp

        bot = ChatIYP(dataset=generate_iyp(IYPConfig.small(seed=42)))
        question = "Which country is AS2497 registered in?"
        bot.ask(question)
        hit = bot.ask(question)
        assert hit.diagnostics.get("cache_hit") is True
        bot.store.create_node(["AS"], {"asn": 99999, "name": "NEWCOMER"})
        after_mutation = bot.ask(question)
        assert after_mutation.diagnostics.get("cache_hit") is None

    def test_relationship_property_write_invalidates(self):
        from repro.iyp import IYPConfig, generate_iyp

        bot = ChatIYP(dataset=generate_iyp(IYPConfig.small(seed=42)))
        question = "Which country is AS2497 registered in?"
        bot.ask(question)
        assert bot.ask(question).diagnostics.get("cache_hit") is True
        result = bot.run_cypher(
            "MATCH (:AS {asn: 2497})-[r:COUNTRY]->(:Country) SET r.hege = 0.5"
        )
        assert result.properties_set >= 1
        assert bot.ask(question).diagnostics.get("cache_hit") is None

    def test_config_partition(self, small_dataset):
        question = "Which country is AS2497 registered in?"
        bot_a = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(dataset_size="small", answer_cache_size=8),
        )
        bot_a.ask(question)
        assert bot_a.ask(question).diagnostics.get("cache_hit") is True
        # Each ChatIYP owns its cache: another config never sees bot_a's entry.
        bot_b = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(dataset_size="small", answer_cache_size=8, use_reranker=False),
        )
        assert bot_b.ask(question).diagnostics.get("cache_hit") is None


    @pytest.mark.parametrize("budget", [-1, float("nan")])
    def test_bad_budget_raises_on_hit_and_miss(self, small_dataset, budget):
        bot = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(dataset_size="small", answer_cache_size=8),
        )
        question = "Which country is AS2497 registered in?"
        with pytest.raises(ValueError, match="budget_ms"):
            bot.ask(question, deadline_ms=budget)
        bot.ask(question)
        with pytest.raises(ValueError, match="budget_ms"):
            bot.ask(question, deadline_ms=budget)
        # None and 0 both mean "no deadline"; the cached answer is served.
        for no_deadline in (None, 0):
            assert bot.ask(question, deadline_ms=no_deadline).diagnostics.get("cache_hit")

class TestServingSnapshot:
    def test_snapshot_reports_retry_counters(self, hardened_bot):
        snapshot = hardened_bot.serving_snapshot()
        retry = snapshot["retry"]
        assert retry is not None
        assert retry["retries"] >= 0
        assert retry["deadline_capped"] >= 0
        # breaker/cache are armed on the hardened bot; faults are not
        assert snapshot["breaker"] is not None
        assert snapshot["cache"] is not None
        assert snapshot["faults"] is None

    def test_snapshot_reports_an_empty_cache(self, small_dataset):
        # AnswerCache defines __len__, so an empty cache is falsy; it is
        # still armed and must show up in /metrics.
        bot = ChatIYP(dataset=small_dataset, config=ChatIYPConfig(dataset_size="small"))
        assert bot.serving_snapshot()["cache"]["size"] == 0
        # A degraded answer counts a miss but is never cached.
        response = bot.ask("Which country is AS2497 registered in?", deadline_ms=0.01)
        assert response.diagnostics["degraded"]
        cache = bot.serving_snapshot()["cache"]
        assert (cache["size"], cache["misses"]) == (0, 1)
