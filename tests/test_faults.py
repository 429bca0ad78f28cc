"""Unit + integration tests for the fault-injection layer (`repro.faults`).

The unit half exercises plan parsing, deterministic draws, windows and
scoping with an injectable fake sleeper (no wall-clock dependence).  The
integration half activates plans against a real ChatIYP and checks that
injected faults travel the *organic* failure paths: the error taxonomy,
the vector fallback, the retry policy and the circuit breaker.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core import ChatIYP, ChatIYPConfig
from repro.faults import (
    SITE_CATALOGUE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCypherError,
    InjectedFault,
    InjectedTimeout,
    InjectedTransientError,
    activated,
    active_injector,
    fault_point,
    is_injected,
)
from repro.serving.breaker import BreakerState


def plan_of(*specs: FaultSpec, seed: int = 0) -> FaultPlan:
    return FaultPlan(seed=seed, specs=tuple(specs), name="test")


# ---------------------------------------------------------------------------
# FaultSpec / FaultPlan
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            FaultSpec(site="", kind="latency")
        with pytest.raises(ValueError):
            FaultSpec(site="graph.execute", kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(site="graph.execute", kind="latency", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(site="graph.execute", kind="latency", latency_ms=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(site="graph.execute", kind="error", error="segfault")
        with pytest.raises(ValueError):
            FaultSpec(site="graph.execute", kind="error", after=-1)
        with pytest.raises(ValueError):
            FaultSpec(site="graph.execute", kind="error", after=3, until=3)

    def test_glob_matching(self):
        spec = FaultSpec(site="llm.*", kind="latency", latency_ms=1.0)
        assert spec.matches("llm.answer")
        assert spec.matches("llm.text2cypher")
        assert not spec.matches("graph.execute")
        exact = FaultSpec(site="graph.execute", kind="latency", latency_ms=1.0)
        assert exact.matches("graph.execute")
        assert not exact.matches("graph.execute.inner")

    def test_window(self):
        spec = FaultSpec(site="s", kind="error", after=2, until=4)
        assert [spec.active_at(k) for k in range(6)] == [
            False, False, True, True, False, False,
        ]
        forever = FaultSpec(site="s", kind="error", after=1)
        assert not forever.active_at(0)
        assert forever.active_at(10_000)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultSpec.from_dict({"site": "s", "kind": "error", "colour": "red"})


class TestFaultPlan:
    def test_round_trip_and_digest(self, tmp_path):
        plan = plan_of(
            FaultSpec(site="graph.execute", kind="error", error="cypher", probability=0.5),
            FaultSpec(site="llm.*", kind="latency", latency_ms=12.5, after=1, until=9),
            seed=11,
        )
        rebuilt = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt.seed == plan.seed
        assert rebuilt.specs == plan.specs
        assert rebuilt.digest() == plan.digest()
        # digest is content identity: any knob change moves it
        other = plan_of(*plan.specs, seed=12)
        assert other.digest() != plan.digest()

    def test_from_file_defaults_name_to_stem(self, tmp_path):
        path = tmp_path / "storm.json"
        path.write_text(json.dumps({"seed": 3, "specs": [
            {"site": "vector.search", "kind": "latency", "latency_ms": 5.0},
        ]}))
        plan = FaultPlan.from_file(path)
        assert plan.name == "storm"
        assert plan.seed == 3
        assert plan.specs[0].site == "vector.search"

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid fault plan JSON"):
            FaultPlan.from_file(path)

    def test_specs_for_and_max_latency(self):
        spec_a = FaultSpec(site="llm.*", kind="latency", latency_ms=30.0)
        spec_b = FaultSpec(site="llm.answer", kind="error", error="transient")
        plan = plan_of(spec_a, spec_b)
        assert plan.specs_for("llm.answer") == ((0, spec_a), (1, spec_b))
        assert plan.specs_for("graph.execute") == ()
        assert plan.max_latency_ms == 30.0

    def test_smoke_plan_parses_and_targets_known_sites(self):
        plan = FaultPlan.from_file("benchmarks/plans/smoke.json")
        assert plan.name == "smoke"
        assert plan.specs
        for spec in plan.specs:
            assert spec.site in SITE_CATALOGUE, spec.site


# ---------------------------------------------------------------------------
# FaultInjector: determinism, scoping, execution
# ---------------------------------------------------------------------------


class TestInjectorDeterminism:
    PLAN = None  # built per-test; class constant plans would share memo dicts

    def _plan(self):
        return plan_of(
            FaultSpec(site="graph.execute", kind="error", error="cypher", probability=0.3),
            FaultSpec(site="graph.execute", kind="latency", latency_ms=7.0, probability=0.4),
            seed=7,
        )

    def test_schedule_identical_across_injectors(self):
        first = FaultInjector(self._plan())
        second = FaultInjector(self._plan())
        for scope in (None, 0, 1, "req-9"):
            assert first.schedule("graph.execute", scope, 32) == second.schedule(
                "graph.execute", scope, 32
            )

    def test_schedule_differs_across_scopes_and_seeds(self):
        injector = FaultInjector(self._plan())
        sched0 = injector.schedule("graph.execute", 0, 64)
        sched1 = injector.schedule("graph.execute", 1, 64)
        assert sched0 != sched1
        reseeded = FaultInjector(
            plan_of(*self._plan().specs, seed=8)
        )
        assert reseeded.schedule("graph.execute", 0, 64) != sched0

    def test_fire_follows_the_pure_schedule(self):
        plan = self._plan()
        preview = FaultInjector(plan).schedule("graph.execute", None, 20)
        injector = FaultInjector(plan, sleep=lambda _s: None)
        fired = []
        for _ in range(20):
            try:
                fired.append(injector.fire("graph.execute"))
            except InjectedFault as exc:
                fired.append(exc)
        for expected, actual in zip(preview, fired):
            if expected is None:
                assert actual is None
            elif expected.kind == "error":
                assert isinstance(actual, InjectedCypherError)
            else:
                assert actual is not None and actual.kind == expected.kind

    def test_scope_counters_are_independent(self):
        # until=1 → fires exactly once per scope; a fresh scope restarts
        # the invocation counter, the old scope's counter is spent.
        plan = plan_of(FaultSpec(site="cache.get", kind="garbage", until=1))
        injector = FaultInjector(plan, sleep=lambda _s: None)
        with injector.scope("a"):
            assert injector.fire("cache.get").kind == "garbage"
            assert injector.fire("cache.get") is None
        with injector.scope("b"):
            assert injector.fire("cache.get").kind == "garbage"
        assert injector.current_scope is None

    def test_first_matching_spec_wins(self):
        plan = plan_of(
            FaultSpec(site="llm.*", kind="latency", latency_ms=2.0),
            FaultSpec(site="llm.answer", kind="error", error="timeout"),
        )
        injector = FaultInjector(plan, sleep=lambda _s: None)
        action = injector.fire("llm.answer")
        assert action.kind == "latency" and action.spec_index == 0


class TestInjectorExecution:
    def test_latency_sleeps_and_accounts(self):
        slept = []
        plan = plan_of(FaultSpec(site="vector.search", kind="latency", latency_ms=50.0))
        injector = FaultInjector(plan, sleep=slept.append)
        injector.fire("vector.search")
        injector.fire("vector.search")
        assert slept == [0.05, 0.05]
        assert injector.total_injected_ms == 100.0
        assert injector.snapshot()["fires"] == {"vector.search": 2}

    def test_error_classes_map_to_exception_types(self):
        for error, expected in (
            ("transient", InjectedTransientError),
            ("timeout", InjectedTimeout),
            ("cypher", InjectedCypherError),
        ):
            injector = FaultInjector(
                plan_of(FaultSpec(site="s", kind="error", error=error))
            )
            with pytest.raises(expected):
                injector.fire("s")
        assert issubclass(InjectedTimeout, TimeoutError)

    def test_garbage_returns_payload_to_call_site(self):
        injector = FaultInjector(
            plan_of(FaultSpec(site="s", kind="garbage", payload="MATCH junk"))
        )
        action = injector.fire("s")
        assert action.kind == "garbage"
        assert action.payload == "MATCH junk"

    def test_is_injected_walks_the_cause_chain(self):
        try:
            try:
                raise InjectedTransientError("inner")
            except InjectedTransientError as inner:
                raise RuntimeError("wrapped") from inner
        except RuntimeError as outer:
            assert is_injected(outer)
        assert not is_injected(RuntimeError("organic"))


class TestActivation:
    def test_fault_point_is_noop_when_inactive(self):
        assert active_injector() is None
        assert fault_point("graph.execute") is None

    def test_activated_installs_and_restores(self):
        outer = plan_of(FaultSpec(site="s", kind="garbage"))
        inner = plan_of(FaultSpec(site="s", kind="garbage"), seed=1)
        with activated(outer) as outer_injector:
            assert active_injector() is outer_injector
            with activated(inner) as inner_injector:
                assert active_injector() is inner_injector
            assert active_injector() is outer_injector
        assert active_injector() is None

    def test_activated_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with activated(plan_of(FaultSpec(site="s", kind="garbage"))):
                raise RuntimeError("boom")
        assert active_injector() is None


# ---------------------------------------------------------------------------
# Integration: injected faults travel organic paths through ChatIYP
# ---------------------------------------------------------------------------


def build_chat(small_dataset, **overrides) -> ChatIYP:
    """A fresh, cache-free ChatIYP so fault tests never cross-contaminate."""
    config = ChatIYPConfig(
        dataset_size="small",
        answer_cache_size=0,
        coalesce_inflight=False,
        **overrides,
    )
    return ChatIYP(dataset=small_dataset, config=config)


def clean_questions(small_dataset, count: int) -> list[str]:
    """Questions whose symbolic path fully succeeds with no plan active.

    Selected against a throwaway fault-free instance; generation and
    execution are deterministic in (seed, question, dataset), so the same
    questions stay clean on any other instance built the same way.
    """
    probe = build_chat(small_dataset)
    clean: list[str] = []
    for asn in probe.dataset.asns:
        question = f"Which country is AS{asn} registered in?"
        response = probe.ask(question)
        if (
            not response.used_fallback
            and response.cypher is not None
            and response.diagnostics.get("error_class") is None
        ):
            clean.append(question)
        if len(clean) == count:
            return clean
    raise AssertionError(f"only {len(clean)} clean questions in the small dataset")


class TestInjectedFaultTaxonomy:
    def test_engine_error_maps_to_execution_and_falls_back(self, small_dataset):
        chat = build_chat(small_dataset)
        question = clean_questions(small_dataset, 1)[0]
        plan = plan_of(FaultSpec(site="graph.execute", kind="error", error="cypher"))
        with activated(plan):
            response = chat.ask(question)
        assert response.used_fallback
        assert response.diagnostics["error_class"]["kind"] == "execution"
        assert "InjectedCypherError" in response.diagnostics["symbolic_error"]
        assert response.answer

    def test_garbage_cypher_maps_to_execution(self, small_dataset):
        chat = build_chat(small_dataset)
        question = clean_questions(small_dataset, 1)[0]
        plan = plan_of(FaultSpec(site="llm.text2cypher", kind="garbage"))
        with activated(plan):
            response = chat.ask(question)
        # The unparsable generation fails in the engine exactly like an
        # organic bad generation: execution-class, vector fallback.
        assert response.used_fallback
        assert response.diagnostics["error_class"]["kind"] == "execution"
        assert response.diagnostics["generation"]["perturbation"] == "injected_garbage"

    def test_transient_synthesis_error_is_retried(self, small_dataset):
        chat = build_chat(small_dataset, llm_retry_backoff_ms=1.0)
        question = clean_questions(small_dataset, 1)[0]
        before = chat.retry_policy.retries
        plan = plan_of(
            FaultSpec(site="llm.answer", kind="error", error="transient", until=1)
        )
        with activated(plan):
            response = chat.ask(question)
        assert response.answer
        assert not response.used_fallback
        assert chat.retry_policy.retries == before + 1

    def test_injected_latency_counts_at_serving_site(self, small_dataset):
        chat = build_chat(small_dataset)
        question = clean_questions(small_dataset, 1)[0]
        plan = plan_of(
            FaultSpec(site="serving.execute", kind="latency", latency_ms=1.0)
        )
        with activated(plan) as injector:
            chat.ask(question)
            assert injector.total_injected_ms == 1.0
            snapshot = chat.serving_snapshot()
        assert snapshot["faults"]["fires"] == {"serving.execute": 1}

    def test_snapshot_faults_none_when_inactive(self, small_dataset):
        chat = build_chat(small_dataset)
        assert chat.serving_snapshot()["faults"] is None


class TestBreakerUnderInjection:
    def test_injected_failures_trip_the_breaker(self, small_dataset):
        chat = build_chat(
            small_dataset, breaker_failure_threshold=2, breaker_reset_ms=60_000.0
        )
        questions = clean_questions(small_dataset, 3)
        plan = plan_of(FaultSpec(site="graph.execute", kind="error", error="cypher"))
        with activated(plan):
            chat.ask(questions[0])
            chat.ask(questions[1])
            assert chat.breaker.state is BreakerState.OPEN
            # while open the symbolic stage is skipped outright
            response = chat.ask(questions[2])
        assert "symbolic_skipped_breaker_open" in response.diagnostics["degraded"]
        assert response.diagnostics["error_class"]["kind"] == "circuit_open"
        assert response.used_fallback

    def test_half_open_admits_exactly_one_probe(self, small_dataset):
        """Concurrent requests against a cooled-down breaker: exactly one
        wins the probe slot and attempts symbolically; every loser is
        routed vector-only with the breaker-open marker."""
        chat = build_chat(
            small_dataset, breaker_failure_threshold=1, breaker_reset_ms=40.0
        )
        questions = clean_questions(small_dataset, 5)
        plan = plan_of(
            # invocation 0 (the trip): engine failure → breaker opens
            FaultSpec(site="graph.execute", kind="error", error="cypher", until=1),
            # every later engine call (the probe) holds the half-open
            # window open long enough for all losers to bounce off it
            FaultSpec(site="graph.execute", kind="latency", latency_ms=600.0, after=1),
        )
        with activated(plan):
            chat.ask(questions[0])
            assert chat.breaker.state is BreakerState.OPEN
            # wait out the cooldown so the next allow() arms the probe
            import time

            time.sleep(0.08)

            responses: dict[str, object] = {}
            barrier = threading.Barrier(4)

            def contend(question: str) -> None:
                barrier.wait()
                responses[question] = chat.ask(question)

            threads = [
                threading.Thread(target=contend, args=(question,))
                for question in questions[1:5]
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        skipped = [
            response
            for response in responses.values()
            if "symbolic_skipped_breaker_open" in response.diagnostics.get("degraded", ())
        ]
        probes = [
            response
            for response in responses.values()
            if "symbolic_skipped_breaker_open" not in response.diagnostics.get("degraded", ())
        ]
        assert len(probes) == 1, "exactly one request may claim the probe slot"
        assert len(skipped) == 3
        # the probe attempted symbolically and succeeded → breaker healed
        probe = probes[0]
        assert not probe.used_fallback
        assert probe.cypher is not None
        assert chat.breaker.state is BreakerState.CLOSED
        # losers were served vector-only, not errors
        for response in skipped:
            assert response.used_fallback
            assert response.answer
