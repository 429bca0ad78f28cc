"""Retry with seeded, jittered exponential backoff.

Wraps the LLM-facing pipeline stages (rerank, synthesis) against
*transient* failures — a raised exception is retried up to ``attempts``
total tries with exponentially growing, jittered sleeps between tries.
Expected pipeline outcomes (the error taxonomy recorded on the context)
are not exceptions and are never retried.

Determinism contract: jitter comes from a :class:`random.Random` seeded at
construction, never the global RNG, and the RNG is only consumed when a
failure actually occurs — the happy path stays bit-stable.  Sleeping is
injectable for tests, and a :class:`~repro.serving.deadline.Deadline`
caps both whether to retry at all and how long a backoff may sleep: a
backoff is **never allowed to overshoot the remaining budget** (a retry
that sleeps past the deadline just converts a transient failure into a
guaranteed deadline miss).  Every time the cap actually binds, the
policy counts it (:attr:`RetryPolicy.deadline_capped`) and notifies the
optional ``on_deadline_capped`` hook — ChatIYP wires it to the
``retry.deadline_capped`` metrics counter.
"""

from __future__ import annotations

import random
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .deadline import Deadline

__all__ = ["RetryPolicy"]

#: growth of the backoff per failed try
BACKOFF_MULTIPLIER = 2.0
#: the longest backoff, before jitter and the deadline cap
MAX_BACKOFF_MS = 1_000.0


class RetryPolicy:
    """Bounded retry loop with full-jitter exponential backoff."""

    def __init__(
        self,
        attempts: int = 2,
        backoff_ms: float = 25.0,
        jitter: float = 0.5,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        on_deadline_capped: Optional[Callable[[], None]] = None,
    ) -> None:
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.attempts = attempts
        self.backoff_ms = backoff_ms
        self.jitter = jitter
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._retries = 0
        self._deadline_capped = 0
        self._on_deadline_capped = on_deadline_capped

    @property
    def retries(self) -> int:
        """Total retry sleeps performed (for metrics/tests)."""
        return self._retries

    @property
    def deadline_capped(self) -> int:
        """How often a backoff sleep was cut short by the request deadline."""
        return self._deadline_capped

    def _backoff_for(self, attempt: int, deadline: Optional["Deadline"]) -> float:
        base = min(self.backoff_ms * (BACKOFF_MULTIPLIER ** attempt), MAX_BACKOFF_MS)
        with self._rng_lock:
            factor = 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        backoff = base * max(0.0, factor)
        if deadline is not None:
            remaining = deadline.remaining_ms()
            if backoff > remaining:
                # Never sleep past the request budget: the capped retry may
                # still make it, an overshooting one is a guaranteed miss.
                backoff = remaining
                with self._rng_lock:
                    self._deadline_capped += 1
                if self._on_deadline_capped is not None:
                    try:
                        self._on_deadline_capped()
                    except Exception:  # noqa: BLE001 - hooks must never break retries
                        pass
        return backoff

    def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        deadline: Optional["Deadline"] = None,
        retry_on: tuple[type[BaseException], ...] = (Exception,),
        **kwargs: Any,
    ) -> Any:
        """Call ``fn`` with retries; re-raises the last failure."""
        for attempt in range(self.attempts):
            try:
                return fn(*args, **kwargs)
            except retry_on:
                final_try = attempt == self.attempts - 1
                if final_try or (deadline is not None and deadline.expired):
                    raise
                with self._rng_lock:
                    self._retries += 1
                backoff_ms = self._backoff_for(attempt, deadline)
                if backoff_ms > 0:
                    self._sleep(backoff_ms / 1000.0)
        raise AssertionError("unreachable")  # pragma: no cover
