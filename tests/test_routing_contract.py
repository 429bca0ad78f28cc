"""Golden routing contract of the retrieval pipeline.

Pins, per question, everything the routing decision shows to callers:
the answer, the surfaced Cypher, the retrieval source and fallback flag,
and the routing-related diagnostics (``route``, ``sparse``,
``fallback_used``, ``symbolic_error``, ``error_class``, ``degraded`` and
the set of timed stages).  Three systems are swept over the small
CypherEval set — the default ChatIYP, ChatIYP without the vector
fallback, and the vector-only baseline — plus a few requests that take
the skip paths (an already-expired deadline, a forced-open breaker).

A refactor of routing must leave this digest unchanged.  Regenerate only
for an intended behaviour change::

    python -m pytest tests/test_routing_contract.py -q --golden-update
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines import VectorOnlyBaseline
from repro.core import ChatIYP, ChatIYPConfig
from repro.eval import build_cyphereval
from repro.serving import CircuitBreaker, Deadline

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "routing_contract_digest.json"

DIAGNOSTIC_KEYS = (
    "route",
    "sparse",
    "fallback_used",
    "symbolic_error",
    "error_class",
    "degraded",
)

#: how many sweep questions are replayed through each skip path
SKIP_QUESTIONS = 4


def _record(response) -> dict:
    """The routing-visible part of one response (absent keys stay absent)."""
    diagnostics = response.diagnostics
    record = {
        "answer": response.answer,
        "cypher": response.cypher,
        "retrieval_source": response.retrieval_source,
        "used_fallback": response.used_fallback,
        "stage_timings": sorted(diagnostics.get("stage_timings", {})),
    }
    for key in DIAGNOSTIC_KEYS:
        if key in diagnostics:
            record[key] = diagnostics[key]
    return record


def _expired_deadline() -> Deadline:
    """A deadline that is already blown at its first check."""
    ticks = iter([0.0])
    return Deadline(1.0, clock=lambda: next(ticks, 1.0))


def _open_breaker() -> CircuitBreaker:
    """A breaker tripped open whose cooldown never elapses."""
    breaker = CircuitBreaker(failure_threshold=1, clock=lambda: 0.0)
    breaker.record_failure()
    return breaker


def _digest(records: list) -> str:
    blob = json.dumps(records, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _run_digest(dataset) -> dict:
    config = ChatIYPConfig(dataset_size="small")
    systems = {
        "chatiyp": ChatIYP(dataset=dataset, config=config),
        "no_fallback": ChatIYP(
            dataset=dataset,
            config=ChatIYPConfig(dataset_size="small", use_vector_fallback=False),
        ),
        "vector_only": VectorOnlyBaseline(dataset=dataset, config=config),
    }
    questions = [
        item.question for item in build_cyphereval(dataset, seed=7, per_template=2)
    ]
    skip_questions = questions[:SKIP_QUESTIONS] + ["please sing a sea shanty"]
    digest: dict = {"questions": len(questions)}
    for name, system in systems.items():
        sweep = [_record(system.ask(question)) for question in questions]
        digest[name] = _digest(sweep)
        # Skip paths go through the pipeline directly: the answer cache
        # would otherwise serve the sweep's (undegraded) answers.
        pipeline = system.pipeline
        expired = [
            _record(pipeline.query(question, deadline=_expired_deadline()))
            for question in skip_questions
        ]
        digest[f"{name}.expired_deadline"] = _digest(expired)
        if isinstance(system, ChatIYP):
            saved, pipeline.breaker = pipeline.breaker, _open_breaker()
            try:
                opened = [_record(pipeline.query(q)) for q in skip_questions]
            finally:
                pipeline.breaker = saved
            digest[f"{name}.breaker_open"] = _digest(opened)
    return digest


class TestRoutingContract:
    def test_digest_matches_golden(self, request, small_dataset):
        digest = _run_digest(small_dataset)
        if request.config.getoption("--golden-update", default=False):
            GOLDEN_PATH.write_text(json.dumps(digest, indent=2) + "\n")
            pytest.skip("golden regenerated")
        golden = json.loads(GOLDEN_PATH.read_text())
        assert digest == golden, (
            "routing contract drifted — regenerate with --golden-update only "
            "for an intended behaviour change"
        )

    def test_skip_paths_are_degraded(self, small_dataset):
        """The skip asks really take the skip paths they are meant to pin."""
        bot = ChatIYP(dataset=small_dataset, config=ChatIYPConfig(dataset_size="small"))
        question = "Which country is AS2497 registered in?"
        expired = bot.pipeline.query(question, deadline=_expired_deadline())
        assert "symbolic_skipped_deadline" in expired.diagnostics["degraded"]
        bot.pipeline.breaker = _open_breaker()
        opened = bot.pipeline.query(question)
        assert opened.diagnostics["degraded"] == ["symbolic_skipped_breaker_open"]
        assert opened.retrieval_source == "vector"
