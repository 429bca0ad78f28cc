"""Circuit breaker guarding the symbolic retrieval path.

Classic three-state machine:

* **closed** — requests flow; consecutive recorded failures are counted,
  and reaching ``failure_threshold`` trips the breaker open;
* **open** — :meth:`CircuitBreaker.allow` refuses (the pipeline routes to
  the vector path instead) until ``reset_after_ms`` of cooldown passed;
* **half-open** — after the cooldown, a single probe request is allowed
  through; success closes the breaker, failure re-opens it and restarts
  the cooldown.

Only *infrastructure-shaped* failures should be recorded (execution
errors, timeouts) — a question the model simply cannot translate, or
translates into text that fails to parse, says nothing about the health
of the engine, so the pipeline records translation misses and syntax
errors as neutral.

The clock is injectable (tests drive cooldowns deterministically) and the
state machine is lock-protected — ``allow``/``record_*`` are called from
every server worker thread.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Callable, Optional

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(str, enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-counting breaker with half-open recovery probing."""

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after_ms: float = 30_000.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[BreakerState, BreakerState], None]] = None,
    ) -> None:
        if failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        self.failure_threshold = failure_threshold
        self.reset_after_ms = float(reset_after_ms)
        self._clock = clock
        self._listeners: list[Callable[[BreakerState, BreakerState], None]] = []
        if on_transition is not None:
            self._listeners.append(on_transition)
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._trips = 0

    # -- state machine -----------------------------------------------------

    def _transition(self, new_state: BreakerState) -> None:
        old, self._state = self._state, new_state
        if new_state is BreakerState.OPEN:
            self._trips += 1
            self._opened_at = self._clock()
        if new_state is not BreakerState.HALF_OPEN:
            self._probe_in_flight = False
        if old is not new_state:
            for listener in self._listeners:
                try:
                    listener(old, new_state)
                except Exception:  # noqa: BLE001 - callbacks must never break serving
                    pass

    def allow(self) -> bool:
        """May a symbolic attempt proceed right now?

        In the open state this also performs the open → half-open
        transition once the cooldown elapsed, claiming the probe slot for
        the caller that observed it first.
        """
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                elapsed_ms = (self._clock() - self._opened_at) * 1000.0
                if elapsed_ms < self.reset_after_ms:
                    return False
                self._transition(BreakerState.HALF_OPEN)
                self._probe_in_flight = True
                return True
            # half-open: exactly one probe at a time
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        """A guarded attempt succeeded; half-open success closes the breaker."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state is not BreakerState.CLOSED:
                self._transition(BreakerState.CLOSED)

    def record_neutral(self) -> None:
        """A guarded attempt ended without an infrastructure signal.

        Translation misses and sparse results neither heal nor trip the
        breaker, but a half-open probe that ends this way must hand its
        probe slot back so the next attempt can still probe recovery.
        """
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probe_in_flight = False

    def record_failure(self) -> None:
        """A guarded attempt failed; may trip (or re-open) the breaker."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._transition(BreakerState.OPEN)
                return
            self._consecutive_failures += 1
            if (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._transition(BreakerState.OPEN)

    # -- introspection -----------------------------------------------------

    def subscribe(
        self, listener: Callable[[BreakerState, BreakerState], None]
    ) -> None:
        """Add a ``(old, new)`` transition listener.

        Listeners fire under the breaker lock and must be fast and
        re-entrancy-free (the chaos harness uses this to audit that every
        observed transition is legal).  Exceptions are swallowed.
        """
        with self._lock:
            self._listeners.append(listener)

    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state

    def snapshot(self) -> dict:
        """JSON-friendly state dump for ``/metrics``."""
        with self._lock:
            return {
                "state": self._state.value,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "reset_after_ms": self.reset_after_ms,
                "trips": self._trips,
            }
