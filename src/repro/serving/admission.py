"""Admission control: a concurrency gate with queue-depth load shedding.

The HTTP server asks for a slot before doing any work.  At most
``max_concurrency`` requests run at once; up to ``max_queue_depth``
further requests wait (bounded by ``queue_timeout_s``); everything beyond
that is shed immediately so the server answers ``503`` + ``Retry-After``
in microseconds instead of stacking threads until something falls over.

Implemented on a condition variable rather than a semaphore so the waiting
depth is observable and boundable — a plain semaphore hides the queue.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from ..faults import fault_point

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded-concurrency gate with an explicitly bounded wait queue."""

    def __init__(
        self,
        max_concurrency: int = 8,
        max_queue_depth: int = 16,
        queue_timeout_s: float = 1.0,
        retry_after_s: float = 1.0,
    ) -> None:
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        self.max_concurrency = max_concurrency
        self.max_queue_depth = max_queue_depth
        self.queue_timeout_s = queue_timeout_s
        self.retry_after_s = retry_after_s
        self._cond = threading.Condition()
        self._active = 0
        self._waiting = 0
        self._accepted = 0
        self._shed = 0

    def acquire(self, timeout: Optional[float] = None) -> bool:
        """Try to take a slot; ``False`` means the request must be shed.

        Sheds immediately when the wait queue is full, otherwise waits up
        to ``timeout`` (default ``queue_timeout_s``) for capacity.
        """
        # Fault-injection site: slot starvation. A "shed" action refuses
        # the request outright (counted as a shed, exactly as a saturated
        # queue would); injected latency delays entry to the gate.
        action = fault_point("admission.acquire")
        if action is not None and action.kind == "shed":
            with self._cond:
                self._shed += 1
            return False
        wait_budget = self.queue_timeout_s if timeout is None else timeout
        with self._cond:
            if self._active < self.max_concurrency:
                self._active += 1
                self._accepted += 1
                return True
            if self._waiting >= self.max_queue_depth or wait_budget <= 0:
                self._shed += 1
                return False
            self._waiting += 1
            try:
                granted = self._cond.wait_for(
                    lambda: self._active < self.max_concurrency, timeout=wait_budget
                )
            finally:
                self._waiting -= 1
            if not granted:
                self._shed += 1
                return False
            self._active += 1
            self._accepted += 1
            return True

    def release(self) -> None:
        """Return a slot taken by a successful :meth:`acquire`."""
        with self._cond:
            if self._active <= 0:
                raise RuntimeError("release() without a matching acquire()")
            self._active -= 1
            self._cond.notify()

    @contextmanager
    def slot(self, timeout: Optional[float] = None) -> Iterator[bool]:
        """``with controller.slot() as admitted:`` — releases automatically."""
        admitted = self.acquire(timeout)
        try:
            yield admitted
        finally:
            if admitted:
                self.release()

    def snapshot(self) -> dict:
        """JSON-friendly state dump for ``/metrics``."""
        with self._cond:
            return {
                "active": self._active,
                "waiting": self._waiting,
                "max_concurrency": self.max_concurrency,
                "max_queue_depth": self.max_queue_depth,
                "accepted": self._accepted,
                "shed": self._shed,
            }
