"""Serving-hardening primitives for production-shaped deployments.

The :mod:`repro.serving` layer packages the mechanisms a bounded-latency,
concurrent ChatIYP deployment needs, independent of any particular
transport:

* :class:`Deadline` — a monotonic per-request time budget threaded through
  the stage pipeline so every stage can check remaining time and degrade
  instead of hanging;
* :class:`AnswerCache` — a thread-safe bounded LRU over full answers,
  keyed by normalized question + graph statistics version (graph
  mutations invalidate automatically);
* :class:`CircuitBreaker` — classic closed/open/half-open breaker that
  trips the symbolic path after repeated execution failures and probes
  recovery after a cooldown;
* :class:`AdmissionController` — a concurrency semaphore with queue-depth
  load shedding, backing the HTTP server's ``503`` + ``Retry-After``;
* :class:`RetryPolicy` — seeded jittered exponential backoff for
  transient LLM-stage failures, deadline-aware.

Everything here is stdlib-only, thread-safe, and deterministic unless a
wall-clock-dependent feature (deadline, breaker cooldown) is actually
switched on.
"""

from .admission import AdmissionController
from .breaker import BreakerState, CircuitBreaker
from .cache import AnswerCache, normalize_question
from .deadline import Deadline
from .retry import RetryPolicy

__all__ = [
    "AdmissionController",
    "AnswerCache",
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "RetryPolicy",
    "normalize_question",
]
