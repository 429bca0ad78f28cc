"""The chaos soak: hammer an in-process ChatIYP under an active fault plan
and audit serving invariants after every request.

Determinism contract (the part CI gates on): with a fixed ``--seed`` and
``--plan`` the *summary* is bit-reproducible across runs —

* the per-request question stream is a pure function of the seed
  (``question_digest``);
* the per-request fault schedule is a pure function of the plan seed and
  the request index (``schedule_digest``, computed from the injector's
  side-effect-free :meth:`~repro.faults.FaultInjector.schedule`);
* a healthy soak reports an empty ``violations`` list.

Wall-clock observations (latencies, cache-hit counts, breaker trips) are
inherently scheduling-dependent, so they live in a separate ``observed``
payload that is *not* part of the reproducibility contract.

Every invariant bound is widened by exactly the latency the injector
reports having added while the request ran, so a correct system cannot
flake the soak no matter how aggressive the plan is.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Any, Optional, Union

from ..core.chatiyp import ChatIYP
from ..core.config import ChatIYPConfig
from ..faults import SITE_CATALOGUE, FaultInjector, FaultPlan, activated
from ..serving import AdmissionController
from .invariants import InvariantChecker, Violation

__all__ = ["RequestSpec", "ChaosReport", "ChaosRunner", "write_violation_dump"]

#: question templates instantiated with dataset ASNs (all translatable by
#: the simulated backbone) plus two deliberately untranslatable probes
_TEMPLATES = (
    "Which country is AS{asn} registered in?",
    "How many prefixes does AS{asn} originate?",
    "What organization manages AS{asn}?",
)
_UNTRANSLATABLE = (
    "What is the meaning of life?",
    "Tell me a story about the moon landing.",
)


@dataclass(frozen=True)
class RequestSpec:
    """What request ``index`` will do — a pure function of the seed."""

    index: int
    batch: bool
    questions: tuple[str, ...]


@dataclass
class ChaosReport:
    """Outcome of one soak: the reproducible summary + loose observations."""

    summary: dict[str, Any]
    observed: dict[str, Any]
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def write_violation_dump(
    path: Union[str, Path],
    runner: "ChaosRunner",
    violations: list[Violation],
) -> Path:
    """Persist everything needed for an exact replay of a failed soak."""
    dump = {
        "seed": runner.seed,
        "requests": runner.requests,
        "workers": runner.workers,
        "deadline_ms": runner.deadline_ms,
        "grace_ms": runner.grace_ms,
        "dataset_size": runner.dataset_size,
        "plan": runner.plan.to_dict() if runner.plan else None,
        "violations": [violation.to_dict() for violation in violations],
        "offending_requests": [
            runner.request_spec(violation.request).questions
            for violation in violations
            if violation.request is not None
        ],
        "replay": (
            f"python -m repro.chaos --requests {runner.requests} "
            f"--workers {runner.workers} --seed {runner.seed}"
            + (" --plan <this plan>" if runner.plan else "")
        ),
    }
    target = Path(path)
    target.write_text(json.dumps(dump, indent=2, sort_keys=True) + "\n")
    return target


class ChaosRunner:
    """Multi-threaded soak against an in-process :class:`ChatIYP`."""

    def __init__(
        self,
        requests: int = 300,
        workers: int = 8,
        seed: int = 7,
        plan: Optional[FaultPlan] = None,
        dataset_size: str = "small",
        deadline_ms: float = 300.0,
        grace_ms: float = 1_500.0,
        max_concurrency: Optional[int] = None,
        batch_every: int = 10,
        batch_size: int = 3,
    ) -> None:
        if requests < 1:
            raise ValueError("requests must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.requests = requests
        self.workers = workers
        self.seed = seed
        self.plan = plan
        self.dataset_size = dataset_size
        self.deadline_ms = float(deadline_ms)
        self.grace_ms = float(grace_ms)
        # Fewer slots than workers so the admission queue is actually
        # exercised (queue time does not count against request deadlines —
        # budgets start at admission, exactly like the HTTP server's).
        self.max_concurrency = (
            max_concurrency if max_concurrency is not None else max(1, workers // 2)
        )
        self.batch_every = batch_every
        self.batch_size = batch_size
        self._pool: Optional[tuple[str, ...]] = None

    # -- deterministic request stream --------------------------------------

    def _draw(self, *parts: Any) -> int:
        token = "|".join(str(part) for part in (self.seed, *parts))
        return int.from_bytes(sha256(token.encode()).digest()[:8], "big")

    def question_pool(self, chat: Optional[ChatIYP] = None) -> tuple[str, ...]:
        """Deterministic question pool over the dataset's ASNs."""
        if self._pool is None:
            if chat is None:
                chat = self.build_chat()
            asns = chat.dataset.asns[:12]
            pool = [
                template.format(asn=asn)
                for asn in asns
                for template in _TEMPLATES
            ]
            pool.extend(_UNTRANSLATABLE)
            self._pool = tuple(pool)
        return self._pool

    def request_spec(self, index: int) -> RequestSpec:
        """The (pure) plan for request ``index``: single ask or batch."""
        pool = self._pool
        if pool is None:
            raise RuntimeError("question_pool() must be built before request_spec()")
        batch = self.batch_every > 0 and index % self.batch_every == 0
        if batch:
            questions = tuple(
                pool[self._draw("q", index, slot) % len(pool)]
                for slot in range(self.batch_size)
            )
        else:
            questions = (pool[self._draw("q", index) % len(pool)],)
        return RequestSpec(index=index, batch=batch, questions=questions)

    # -- digests (the reproducibility contract) ----------------------------

    def question_digest(self) -> str:
        hasher = sha256()
        for index in range(self.requests):
            spec = self.request_spec(index)
            hasher.update(
                f"{index}|{int(spec.batch)}|{'||'.join(spec.questions)}\n".encode()
            )
        return hasher.hexdigest()[:16]

    def schedule_digest(self, invocations: int = 6) -> Optional[str]:
        """Digest of every request's fault schedule (pure preview)."""
        if self.plan is None:
            return None
        injector = FaultInjector(self.plan)
        hasher = sha256()
        for index in range(self.requests):
            for site in SITE_CATALOGUE:
                for invocation, action in enumerate(
                    injector.schedule(site, scope=index, invocations=invocations)
                ):
                    if action is not None:
                        hasher.update(
                            f"{index}|{site}|{invocation}|"
                            f"{action.spec_index}|{action.kind}\n".encode()
                        )
        return hasher.hexdigest()[:16]

    # -- system under test -------------------------------------------------

    def build_chat(self) -> ChatIYP:
        config = ChatIYPConfig(
            seed=0,
            dataset_size=self.dataset_size,
            answer_cache_size=128,
            # Breaker on and twitchy: the soak is exactly the deployment
            # shape the breaker exists for.
            breaker_failure_threshold=3,
            breaker_reset_ms=150.0,
            llm_retry_backoff_ms=5.0,
            coalesce_inflight=True,
        )
        return ChatIYP(config=config)

    # -- the soak ----------------------------------------------------------

    def run(self) -> ChaosReport:
        chat = self.build_chat()
        self.question_pool(chat)
        checker = InvariantChecker(max_concurrency=self.max_concurrency)
        if chat.breaker is not None:
            chat.breaker.subscribe(checker.record_breaker_transition)
        admission = AdmissionController(
            max_concurrency=self.max_concurrency,
            max_queue_depth=self.requests,
            queue_timeout_s=60.0,
        )
        observed = {
            "completed": 0,
            "errored": 0,
            "shed": 0,
            "degraded_responses": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "batch_requests": 0,
        }
        observed_lock = threading.Lock()

        def note(key: str, by: int = 1) -> None:
            with observed_lock:
                observed[key] += by

        injector_box: list[Optional[FaultInjector]] = [None]
        next_index = iter(range(self.requests))
        index_lock = threading.Lock()

        def take_index() -> Optional[int]:
            with index_lock:
                return next(next_index, None)

        def injected_ms() -> float:
            injector = injector_box[0]
            return injector.total_injected_ms if injector is not None else 0.0

        def run_request(index: int) -> None:
            spec = self.request_spec(index)
            injector = injector_box[0]
            scope = injector.scope(index) if injector is not None else nullcontext()
            with scope:
                if not admission.acquire():
                    note("shed")
                    return
                try:
                    with checker.admitted_section():
                        injected_before = injected_ms()
                        started = time.perf_counter()
                        try:
                            if spec.batch:
                                note("batch_requests")
                                outcomes = chat.ask_batch(
                                    list(spec.questions),
                                    deadline_ms=self.deadline_ms,
                                )
                            else:
                                response = chat.ask(
                                    spec.questions[0], deadline_ms=self.deadline_ms
                                )
                        except BaseException as exc:  # noqa: BLE001 - audited below
                            note("errored")
                            checker.check_exception(
                                index, exc, question=spec.questions[0]
                            )
                            return
                        wall_ms = (time.perf_counter() - started) * 1000.0
                        injected_delta = injected_ms() - injected_before
                        checker.check_termination(
                            index,
                            wall_ms,
                            self.deadline_ms,
                            self.grace_ms,
                            injected_delta,
                            question=spec.questions[0],
                        )
                        if spec.batch:
                            checker.check_batch(index, spec.questions, outcomes)
                            for position, outcome in enumerate(outcomes):
                                if outcome.ok:
                                    self._note_response(note, outcome.value)
                                    checker.check_response(
                                        index,
                                        outcome.value,
                                        question=spec.questions[position],
                                    )
                                else:
                                    note("errored")
                                    checker.check_exception(
                                        index,
                                        outcome.error,
                                        question=spec.questions[position],
                                    )
                            note("completed")
                        else:
                            self._note_response(note, response)
                            checker.check_response(
                                index, response, question=spec.questions[0]
                            )
                            note("completed")
                finally:
                    admission.release()

        def worker_loop() -> None:
            while True:
                index = take_index()
                if index is None:
                    return
                run_request(index)

        soak_started = time.perf_counter()
        plan_context = (
            activated(self.plan) if self.plan is not None else nullcontext(None)
        )
        with plan_context as injector:
            injector_box[0] = injector
            threads = [
                threading.Thread(target=worker_loop, name=f"chaos-{i}", daemon=True)
                for i in range(self.workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            checker.sweep_cache(chat.answer_cache)
            injector_snapshot = injector.snapshot() if injector is not None else None
        soak_seconds = time.perf_counter() - soak_started

        summary = {
            "harness": "repro.chaos",
            "requests": self.requests,
            "workers": self.workers,
            "seed": self.seed,
            "deadline_ms": self.deadline_ms,
            "grace_ms": self.grace_ms,
            "max_concurrency": self.max_concurrency,
            "batch_every": self.batch_every,
            "batch_size": self.batch_size,
            "dataset_size": self.dataset_size,
            "plan": self.plan.name if self.plan else None,
            "plan_seed": self.plan.seed if self.plan else None,
            "plan_digest": self.plan.digest() if self.plan else None,
            "schedule_digest": self.schedule_digest(),
            "question_digest": self.question_digest(),
            "invariants": [
                "admission_ceiling",
                "batch_positional",
                "breaker_transitions_legal",
                "degraded_markers_accurate",
                "degraded_never_cached",
                "no_unexpected_crash",
                "termination",
            ],
            "violations": [violation.to_dict() for violation in checker.violations],
            "ok": not checker.violations,
        }
        observed.update(
            {
                "soak_seconds": round(soak_seconds, 3),
                "checks": checker.checks,
                "max_observed_concurrency": checker.max_observed_concurrency,
                "breaker": chat.breaker.snapshot() if chat.breaker else None,
                "breaker_transitions": [
                    f"{old.value}->{new.value}"
                    for old, new in checker.breaker_transitions
                ],
                "faults": injector_snapshot,
                "serving": chat.serving_snapshot(),
            }
        )
        return ChaosReport(
            summary=summary,
            observed=observed,
            violations=list(checker.violations),
        )

    @staticmethod
    def _note_response(note: Any, response: Any) -> None:
        diagnostics = getattr(response, "diagnostics", {}) or {}
        if diagnostics.get("degraded"):
            note("degraded_responses")
        if diagnostics.get("cache_hit"):
            note("cache_hits")
        if diagnostics.get("coalesced"):
            note("coalesced")
