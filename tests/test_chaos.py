"""Tests for the chaos soak harness (`repro.chaos`).

Small soaks run the real multi-threaded harness end to end (seconds, not
minutes); invariant checks are unit-tested against hand-built fakes so
every violation branch is exercised without having to provoke a real
serving bug.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.chaos import (
    DEGRADED_MARKERS,
    ChaosRunner,
    InvariantChecker,
    Violation,
    write_violation_dump,
)
from repro.chaos import invariants
from repro.chaos.cli import main as chaos_main
from repro.faults import FaultPlan
from repro.parallel import BatchOutcome
from repro.serving.breaker import BreakerState

SMOKE_PLAN = "benchmarks/plans/smoke.json"


def response_of(
    answer: str = "AS2497 is registered in JP.",
    question: str = "q",
    degraded: tuple[str, ...] = (),
    cache_hit: bool = False,
) -> SimpleNamespace:
    return SimpleNamespace(
        answer=answer,
        question=question,
        diagnostics={"degraded": list(degraded), "cache_hit": cache_hit},
    )


# ---------------------------------------------------------------------------
# InvariantChecker unit tests — every violation branch
# ---------------------------------------------------------------------------


class TestInvariantChecker:
    def checker(self, max_concurrency: int = 2) -> InvariantChecker:
        return InvariantChecker(max_concurrency=max_concurrency)

    def test_termination_bound_widens_with_injected_latency(self):
        checker = self.checker()
        checker.check_termination(0, wall_ms=900.0, budget_ms=300.0, grace_ms=500.0,
                                  injected_ms=200.0)
        assert not checker.violations
        checker.check_termination(1, wall_ms=900.0, budget_ms=300.0, grace_ms=500.0,
                                  injected_ms=0.0)
        assert [v.invariant for v in checker.violations] == ["termination"]
        assert checker.violations[0].request == 1

    def test_injected_exceptions_are_expected_crashes_are_not(self):
        from repro.faults import InjectedTransientError

        checker = self.checker()
        checker.check_exception(0, InjectedTransientError("planned"))
        assert not checker.violations
        try:
            raise RuntimeError("organic") from InjectedTransientError("cause")
        except RuntimeError as wrapped:
            checker.check_exception(1, wrapped)
        assert not checker.violations  # injected anywhere on the chain
        checker.check_exception(2, ValueError("organic crash"))
        assert [v.invariant for v in checker.violations] == ["no_unexpected_crash"]

    def test_unknown_and_duplicate_degraded_markers(self):
        checker = self.checker()
        checker.check_response(0, response_of(degraded=("rerank_skipped_deadline",)))
        assert not checker.violations
        checker.check_response(1, response_of(degraded=("made_up_marker",)))
        checker.check_response(
            2,
            response_of(
                degraded=("rerank_skipped_deadline", "rerank_skipped_deadline")
            ),
        )
        assert [v.invariant for v in checker.violations] == [
            "degraded_markers_known",
            "degraded_markers_unique",
        ]

    def test_degraded_answers_must_not_be_cache_hits(self):
        checker = self.checker()
        checker.check_response(
            0,
            response_of(degraded=("rerank_skipped_deadline",), cache_hit=True),
        )
        assert [v.invariant for v in checker.violations] == ["degraded_never_cached"]

    def test_partial_marker_requires_partial_answer(self):
        checker = self.checker()
        checker.check_response(
            0,
            response_of(
                answer="Partial answer (deadline exceeded): AS2497 ...",
                degraded=("synthesis_partial_deadline",),
            ),
        )
        assert not checker.violations
        checker.check_response(
            1,
            response_of(
                answer="A perfectly complete answer.",
                degraded=("synthesis_partial_deadline",),
            ),
        )
        assert [v.invariant for v in checker.violations] == [
            "degraded_markers_accurate"
        ]

    def test_batch_lost_duplicated_and_misrouted_results(self):
        checker = self.checker()
        questions = ("q0", "q1")
        ok = [
            BatchOutcome(index=0, value=response_of(question="q0")),
            BatchOutcome(index=1, value=response_of(question="q1")),
        ]
        checker.check_batch(0, questions, ok)
        assert not checker.violations
        # lost
        checker.check_batch(1, questions, ok[:1])
        # duplicated / reordered (also answers the wrong question in slot 1)
        checker.check_batch(
            2, questions, [ok[0], BatchOutcome(index=0, value=ok[0].value)]
        )
        # right slot, wrong question answered
        checker.check_batch(
            3,
            questions,
            [ok[0], BatchOutcome(index=1, value=response_of(question="q0"))],
        )
        assert [v.invariant for v in checker.violations] == ["batch_positional"] * 4

    def test_breaker_transition_legality(self):
        checker = self.checker()
        checker.record_breaker_transition(BreakerState.CLOSED, BreakerState.OPEN)
        checker.record_breaker_transition(BreakerState.OPEN, BreakerState.HALF_OPEN)
        checker.record_breaker_transition(BreakerState.HALF_OPEN, BreakerState.CLOSED)
        checker.record_breaker_transition(BreakerState.OPEN, BreakerState.CLOSED)
        assert not checker.violations
        checker.record_breaker_transition(BreakerState.CLOSED, BreakerState.HALF_OPEN)
        assert [v.invariant for v in checker.violations] == [
            "breaker_transitions_legal"
        ]
        assert len(checker.breaker_transitions) == 5

    def test_admission_ceiling(self):
        checker = self.checker(max_concurrency=2)
        with checker.admitted_section():
            with checker.admitted_section():
                assert not checker.violations
                with checker.admitted_section():
                    pass
        assert [v.invariant for v in checker.violations] == ["admission_ceiling"]
        assert checker.max_observed_concurrency == 3

    def test_cache_sweep_flags_degraded_entries(self):
        class FakeCache:
            def entries(self):
                return [
                    ("k1", response_of()),
                    ("k2", response_of(degraded=("rerank_skipped_deadline",))),
                ]

        checker = self.checker()
        checker.sweep_cache(FakeCache())
        assert [v.invariant for v in checker.violations] == ["degraded_never_cached"]
        checker2 = self.checker()
        checker2.sweep_cache(None)
        assert not checker2.violations

    def test_marker_vocabulary_matches_pipeline(self):
        # every marker the stages can emit is in the checker's vocabulary
        assert DEGRADED_MARKERS == {
            "symbolic_skipped_deadline",
            "symbolic_skipped_breaker_open",
            "rerank_skipped_deadline",
            "synthesis_partial_deadline",
        }

    def test_every_marker_has_a_producer(self):
        # A marker no other module spells out has lost its producer and
        # would silently widen what the checker accepts.
        package = Path(repro.__file__).resolve().parent
        defining = Path(invariants.__file__).resolve()
        literals: set[str] = set()
        for path in package.rglob("*.py"):
            if path.resolve() == defining:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    literals.add(node.value)
        assert sorted(DEGRADED_MARKERS - literals) == []


# ---------------------------------------------------------------------------
# ChaosRunner: request stream determinism + real soaks
# ---------------------------------------------------------------------------


class TestRequestStream:
    def test_request_stream_is_pure_in_the_seed(self):
        first = ChaosRunner(requests=50, workers=2, seed=7)
        second = ChaosRunner(requests=50, workers=2, seed=7)
        first.question_pool()
        second.question_pool()
        for index in range(50):
            assert first.request_spec(index) == second.request_spec(index)
        assert first.question_digest() == second.question_digest()
        reseeded = ChaosRunner(requests=50, workers=2, seed=8)
        reseeded.question_pool()
        assert reseeded.question_digest() != first.question_digest()

    def test_batch_cadence(self):
        runner = ChaosRunner(requests=30, workers=2, seed=1, batch_every=10,
                             batch_size=3)
        runner.question_pool()
        batches = [index for index in range(30) if runner.request_spec(index).batch]
        assert batches == [0, 10, 20]
        assert len(runner.request_spec(0).questions) == 3
        assert len(runner.request_spec(1).questions) == 1

    def test_schedule_digest_none_without_plan(self):
        runner = ChaosRunner(requests=10, workers=2, seed=1, plan=None)
        assert runner.schedule_digest() is None

    def test_schedule_digest_pure_in_the_plan(self):
        plan = FaultPlan.from_file(SMOKE_PLAN)
        a = ChaosRunner(requests=20, workers=2, seed=7, plan=plan)
        b = ChaosRunner(requests=20, workers=2, seed=7, plan=plan)
        assert a.schedule_digest() == b.schedule_digest() is not None

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            ChaosRunner(requests=0)
        with pytest.raises(ValueError):
            ChaosRunner(workers=0)


class TestSoak:
    def test_faulted_soak_passes_and_is_bit_reproducible(self):
        plan = FaultPlan.from_file(SMOKE_PLAN)

        def soak():
            return ChaosRunner(requests=40, workers=4, seed=7, plan=plan).run()

        first, second = soak(), soak()
        assert first.ok, first.summary["violations"]
        assert second.ok
        # the whole summary — not just the digests — must be identical
        assert first.summary == second.summary
        assert first.summary["plan_digest"] == plan.digest()
        # ... while timing-dependent stats stay out of the contract
        assert first.observed["checks"] > 0

    def test_faultfree_soak_passes(self):
        report = ChaosRunner(requests=16, workers=2, seed=3, plan=None).run()
        assert report.ok, report.summary["violations"]
        assert report.summary["schedule_digest"] is None
        assert report.observed["faults"] is None
        assert report.observed["completed"] > 0


# ---------------------------------------------------------------------------
# Violation dump + CLI
# ---------------------------------------------------------------------------


class TestViolationDump:
    def test_dump_is_replayable_json(self, tmp_path):
        plan = FaultPlan.from_file(SMOKE_PLAN)
        runner = ChaosRunner(requests=12, workers=2, seed=7, plan=plan)
        runner.question_pool()
        violations = [
            Violation(invariant="termination", detail="took too long", request=3)
        ]
        path = write_violation_dump(tmp_path / "dump.json", runner, violations)
        dump = json.loads(path.read_text())
        assert dump["seed"] == 7
        assert dump["plan"]["name"] == "smoke"
        assert dump["violations"][0]["invariant"] == "termination"
        # the offending request's exact questions ride along for replay
        assert dump["offending_requests"] == [
            list(runner.request_spec(3).questions)
        ]
        assert "--seed 7" in dump["replay"]


class TestCli:
    def test_cli_soak_prints_reproducible_summary(self, capsys):
        argv = ["--requests", "20", "--workers", "2", "--seed", "3",
                "--plan", SMOKE_PLAN]
        assert chaos_main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert chaos_main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["ok"] is True
        assert first["violations"] == []
        assert first["plan"] == "smoke"

    def test_cli_exits_nonzero_and_dumps_on_violation(self, tmp_path, monkeypatch,
                                                      capsys):
        import repro.chaos.cli as cli_module
        from repro.chaos.runner import ChaosReport

        violation = Violation(invariant="termination", detail="hung", request=0)

        class FakeRunner(ChaosRunner):
            def run(self):
                self.question_pool()
                return ChaosReport(
                    summary={"ok": False, "violations": [violation.to_dict()]},
                    observed={},
                    violations=[violation],
                )

        monkeypatch.setattr(cli_module, "ChaosRunner", FakeRunner)
        dump = tmp_path / "violations.json"
        rc = chaos_main(
            ["--requests", "4", "--workers", "1", "--dump", str(dump)]
        )
        assert rc == 1
        assert dump.exists()
        payload = json.loads(dump.read_text())
        assert payload["violations"][0]["invariant"] == "termination"
        err = capsys.readouterr().err
        assert "replay dump" in err
