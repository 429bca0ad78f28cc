"""Per-request deadline budgets.

A :class:`Deadline` is created once at request admission and threaded
through the pipeline steps on the :class:`~repro.rag.pipeline.QueryContext`.
The steps consult :meth:`Deadline.expired` / :meth:`Deadline.remaining_ms`
and degrade gracefully (skip rerank, partial synthesis, vector-only
routing) instead of blowing the budget.

The clock is injectable so tests can drive expiry deterministically; the
default is :func:`time.monotonic`, which is only consulted when a deadline
is actually configured — the deterministic no-deadline path never touches
a clock.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

__all__ = ["Deadline"]


class Deadline:
    """A monotonic time budget for one request."""

    __slots__ = ("budget_ms", "_clock", "_expires_at")

    def __init__(
        self, budget_ms: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        # NaN fails every comparison, so a NaN budget would never expire;
        # an int past the float range would overflow ``float()`` below.
        if not 0 < budget_ms <= sys.float_info.max:
            raise ValueError(f"budget_ms must be finite and positive, got {budget_ms!r}")
        self.budget_ms = float(budget_ms)
        self._clock = clock
        self._expires_at = clock() + self.budget_ms / 1000.0

    @classmethod
    def start(
        cls, budget_ms: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """Begin a ``budget_ms`` budget now (alias of the constructor)."""
        return cls(budget_ms, clock=clock)

    def remaining_ms(self) -> float:
        """Milliseconds left in the budget (never negative)."""
        return max(0.0, (self._expires_at - self._clock()) * 1000.0)

    @property
    def expired(self) -> bool:
        """True once the budget is exhausted."""
        return self._clock() >= self._expires_at

    def __repr__(self) -> str:
        return (
            f"Deadline(budget_ms={self.budget_ms:.1f}, "
            f"remaining_ms={self.remaining_ms():.1f})"
        )
