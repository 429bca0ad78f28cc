"""Serving invariants the chaos soak audits after every request.

Each check is deliberately *timing-insensitive in the pass direction*: a
healthy system can never flake a check because of scheduling jitter, and
every bound is widened by exactly the delay the fault injector itself
added (tracked, not estimated).  The five invariant families:

1. **Termination** — every admitted request completes within its deadline
   plus a grace bound plus whatever latency was injected while it ran.
2. **Batch integrity** — positional batch results are never lost,
   duplicated or reordered, and each outcome answers its own question.
3. **Degradation honesty** — ``diagnostics["degraded"]`` markers come
   from the known vocabulary, a partial-synthesis marker matches a
   partial answer, and a degraded answer is never served from (or found
   in) the answer cache.
4. **Breaker legality** — every observed circuit-breaker transition is an
   edge of the three-state machine.
5. **Admission ceiling** — concurrently admitted requests never exceed
   ``max_concurrency``.

Additionally, any exception that escapes a request without an
:class:`~repro.faults.errors.InjectedFault` on its chain is a crash —
the system fell over on its own, which is always a violation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

from ..faults import is_injected
from ..parallel import BatchOutcome
from ..serving.breaker import BreakerState

__all__ = [
    "DEGRADED_MARKERS",
    "LEGAL_BREAKER_TRANSITIONS",
    "Violation",
    "InvariantChecker",
]

#: every graceful-degradation marker a pipeline stage may emit
DEGRADED_MARKERS = frozenset(
    {
        "symbolic_skipped_deadline",
        "symbolic_skipped_breaker_open",
        "rerank_skipped_deadline",
        "synthesis_partial_deadline",
    }
)

#: legal edges of the breaker state machine.  open→closed covers the race
#: where a half-open probe is still in flight when a concurrent failure
#: re-opens the breaker, and the probe then succeeds.
LEGAL_BREAKER_TRANSITIONS = frozenset(
    {
        (BreakerState.CLOSED, BreakerState.OPEN),
        (BreakerState.OPEN, BreakerState.HALF_OPEN),
        (BreakerState.HALF_OPEN, BreakerState.OPEN),
        (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        (BreakerState.OPEN, BreakerState.CLOSED),
    }
)

_PARTIAL_ANSWER_PREFIXES = (
    "Partial answer (deadline exceeded):",
    "The request deadline was exceeded",
)


@dataclass
class Violation:
    """One broken invariant, with everything needed to replay it."""

    invariant: str
    detail: str
    request: Optional[int] = None
    question: Optional[Any] = None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"invariant": self.invariant, "detail": self.detail}
        if self.request is not None:
            payload["request"] = self.request
        if self.question is not None:
            payload["question"] = self.question
        return payload


@dataclass
class InvariantChecker:
    """Thread-safe accumulator of invariant checks and violations."""

    max_concurrency: int
    violations: list[Violation] = field(default_factory=list)
    checks: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _active: int = 0
    _max_active: int = 0
    _breaker_transitions: list[tuple[BreakerState, BreakerState]] = field(
        default_factory=list
    )

    # -- recording ---------------------------------------------------------

    def _fail(
        self,
        invariant: str,
        detail: str,
        request: Optional[int] = None,
        question: Optional[Any] = None,
    ) -> None:
        with self._lock:
            self.violations.append(
                Violation(
                    invariant=invariant,
                    detail=detail,
                    request=request,
                    question=question,
                )
            )

    def _count(self) -> None:
        with self._lock:
            self.checks += 1

    # -- admission ceiling -------------------------------------------------

    @contextmanager
    def admitted_section(self) -> Iterator[None]:
        """Wrap the admitted portion of a request; audits the ceiling."""
        with self._lock:
            self._active += 1
            self._max_active = max(self._max_active, self._active)
            active = self._active
        if active > self.max_concurrency:
            self._fail(
                "admission_ceiling",
                f"{active} requests concurrently admitted "
                f"(max_concurrency={self.max_concurrency})",
            )
        try:
            yield
        finally:
            with self._lock:
                self._active -= 1

    @property
    def max_observed_concurrency(self) -> int:
        with self._lock:
            return self._max_active

    # -- termination -------------------------------------------------------

    def check_termination(
        self,
        index: int,
        wall_ms: float,
        budget_ms: float,
        grace_ms: float,
        injected_ms: float,
        question: Optional[Any] = None,
    ) -> None:
        self._count()
        bound = budget_ms + grace_ms + injected_ms
        if wall_ms > bound:
            self._fail(
                "termination",
                f"request took {wall_ms:.1f} ms, bound was {bound:.1f} ms "
                f"(deadline {budget_ms:.0f} + grace {grace_ms:.0f} + "
                f"injected {injected_ms:.1f})",
                request=index,
                question=question,
            )

    # -- crash / error classification --------------------------------------

    def check_exception(
        self, index: int, exc: BaseException, question: Optional[Any] = None
    ) -> None:
        """A request raised: injected faults are expected, crashes are not."""
        self._count()
        if not is_injected(exc):
            self._fail(
                "no_unexpected_crash",
                f"{type(exc).__name__}: {exc}",
                request=index,
                question=question,
            )

    # -- degradation honesty -----------------------------------------------

    def check_response(
        self, index: int, response: Any, question: Optional[Any] = None
    ) -> None:
        self._count()
        diagnostics = getattr(response, "diagnostics", {}) or {}
        degraded = list(diagnostics.get("degraded", ()))
        unknown = [marker for marker in degraded if marker not in DEGRADED_MARKERS]
        if unknown:
            self._fail(
                "degraded_markers_known",
                f"unknown degraded markers {unknown!r}",
                request=index,
                question=question,
            )
        if len(set(degraded)) != len(degraded):
            self._fail(
                "degraded_markers_unique",
                f"duplicate degraded markers {degraded!r}",
                request=index,
                question=question,
            )
        if diagnostics.get("cache_hit") and degraded:
            self._fail(
                "degraded_never_cached",
                f"cache hit served a degraded answer (markers {degraded!r})",
                request=index,
                question=question,
            )
        if "synthesis_partial_deadline" in degraded:
            answer = getattr(response, "answer", "") or ""
            if not answer.startswith(_PARTIAL_ANSWER_PREFIXES):
                self._fail(
                    "degraded_markers_accurate",
                    "synthesis_partial_deadline marker without a partial "
                    f"answer (answer starts {answer[:60]!r})",
                    request=index,
                    question=question,
                )

    # -- batch integrity ---------------------------------------------------

    def check_batch(
        self,
        index: int,
        questions: Sequence[str],
        outcomes: Sequence[BatchOutcome],
    ) -> None:
        self._count()
        if len(outcomes) != len(questions):
            self._fail(
                "batch_positional",
                f"{len(questions)} questions in, {len(outcomes)} outcomes out",
                request=index,
                question=list(questions),
            )
            return
        indexes = [outcome.index for outcome in outcomes]
        if indexes != list(range(len(questions))):
            self._fail(
                "batch_positional",
                f"outcome indexes {indexes!r} are not positional",
                request=index,
                question=list(questions),
            )
        for position, outcome in enumerate(outcomes):
            if outcome.ok and outcome.value is not None:
                answered = getattr(outcome.value, "question", None)
                if answered is not None and answered != questions[position]:
                    self._fail(
                        "batch_positional",
                        f"slot {position} answered {answered!r} "
                        f"instead of {questions[position]!r}",
                        request=index,
                        question=list(questions),
                    )

    # -- breaker legality --------------------------------------------------

    def record_breaker_transition(
        self, old: BreakerState, new: BreakerState
    ) -> None:
        with self._lock:
            self._breaker_transitions.append((old, new))
        if (old, new) not in LEGAL_BREAKER_TRANSITIONS:
            self._fail(
                "breaker_transitions_legal",
                f"illegal breaker transition {old.value} -> {new.value}",
            )

    @property
    def breaker_transitions(self) -> list[tuple[BreakerState, BreakerState]]:
        with self._lock:
            return list(self._breaker_transitions)

    # -- final sweeps ------------------------------------------------------

    def sweep_cache(self, cache: Any) -> None:
        """After the soak: no cached value may carry degraded markers."""
        if cache is None:
            return
        self._count()
        for key, value in cache.entries():
            diagnostics = getattr(value, "diagnostics", {}) or {}
            degraded = list(diagnostics.get("degraded", ()))
            if degraded:
                self._fail(
                    "degraded_never_cached",
                    f"cache entry {key!r} carries degraded markers {degraded!r}",
                )
