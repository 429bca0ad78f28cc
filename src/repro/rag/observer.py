"""Observer hooks around the steps of the RAG pipeline.

A :class:`PipelineObserver` receives a callback around every step
:meth:`~repro.rag.pipeline.RetrieverQueryEngine.query` runs —
``on_stage_start`` / ``on_stage_end`` / ``on_error`` — which is the seam
for tracing, metrics, logging, or any cross-cutting concern that should
not live inside the steps themselves.  Observer failures are contained:
a raising observer is logged and skipped, never allowed to break a query.

Two production-shaped implementations ship with the pipeline:

* :class:`TracingObserver` — records one structured span per step run
  (ordered, with duration and the error that ended the step, if any);
* :class:`MetricsRegistry` — a cumulative timing/counter registry keyed by
  stage name, cheap enough to leave attached in serving paths (the HTTP
  server exposes its :meth:`~MetricsRegistry.snapshot` under ``/metrics``).
"""

from __future__ import annotations

import logging
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .errors import PipelineError

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import QueryContext

__all__ = [
    "PipelineObserver",
    "StageSpan",
    "TracingObserver",
    "StageStats",
    "MetricsRegistry",
]

logger = logging.getLogger(__name__)


class PipelineObserver:
    """Base observer: every hook is a no-op, override what you need."""

    def on_stage_start(self, stage: str, ctx: "QueryContext") -> None:
        """Called immediately before ``stage`` runs."""

    def on_stage_end(self, stage: str, ctx: "QueryContext", elapsed_ms: float) -> None:
        """Called after ``stage`` ran, with its wall-clock duration."""

    def on_error(self, stage: str, error: "PipelineError", ctx: "QueryContext") -> None:
        """Called when ``stage`` recorded a pipeline error, or raised an
        unexpected exception (wrapped in a :class:`PipelineError`)."""


@dataclass
class StageSpan:
    """One recorded stage execution."""

    stage: str
    index: int
    elapsed_ms: float = 0.0
    error: Optional[str] = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = {"stage": self.stage, "index": self.index, "elapsed_ms": self.elapsed_ms}
        if self.error is not None:
            payload["error"] = self.error
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload


class TracingObserver(PipelineObserver):
    """Collects an ordered span per stage run — a poor man's trace.

    Thread-safe: concurrent requests sharing one observer interleave their
    spans in the recorded order without losing or corrupting any.  A
    request runs all its steps on one thread, so open spans are keyed by
    thread and stage, and all mutation happens under an internal lock.

    A step that raises gets no ``on_stage_end``: its exception reaches
    :meth:`on_error` as a plain :class:`~repro.rag.errors.PipelineError`,
    which closes the span there, timed from its start.
    """

    def __init__(self) -> None:
        self.spans: list[StageSpan] = []
        self._open: dict[tuple[int, str], tuple[StageSpan, float]] = {}
        self._lock = threading.Lock()

    def on_stage_start(self, stage: str, ctx: "QueryContext") -> None:
        key = (threading.get_ident(), stage)
        with self._lock:
            span = StageSpan(stage=stage, index=len(self.spans) + len(self._open))
            self._open[key] = (span, time.perf_counter())

    def on_stage_end(self, stage: str, ctx: "QueryContext", elapsed_ms: float) -> None:
        key = (threading.get_ident(), stage)
        with self._lock:
            span, _ = self._open.pop(key, None) or (
                StageSpan(stage=stage, index=len(self.spans)), 0.0
            )
            span.elapsed_ms = elapsed_ms
            self.spans.append(span)

    def on_error(self, stage: str, error: "PipelineError", ctx: "QueryContext") -> None:
        key = (threading.get_ident(), stage)
        raised = type(error) is PipelineError  # a raised step: no on_stage_end follows
        with self._lock:
            opened = self._open.pop(key, None) if raised else self._open.get(key)
            if opened is None:  # error surfaced outside an open span
                self.spans.append(
                    StageSpan(
                        stage=stage, index=len(self.spans), error=type(error).__name__
                    )
                )
                return
            span, started = opened
            span.error = type(error).__name__
            if raised:
                span.elapsed_ms = round((time.perf_counter() - started) * 1000.0, 4)
                self.spans.append(span)

    def to_dicts(self) -> list[dict]:
        with self._lock:
            return [span.to_dict() for span in self.spans]

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self._open.clear()


@dataclass
class StageStats:
    """Cumulative latency/throughput aggregate for one stage."""

    calls: int = 0
    errors: int = 0
    total_ms: float = 0.0
    min_ms: float = float("inf")
    max_ms: float = 0.0

    def record(self, elapsed_ms: float) -> None:
        self.calls += 1
        self.total_ms += elapsed_ms
        self.min_ms = min(self.min_ms, elapsed_ms)
        self.max_ms = max(self.max_ms, elapsed_ms)

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.calls if self.calls else 0.0

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "errors": self.errors,
            "total_ms": round(self.total_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
            "min_ms": round(self.min_ms, 3) if self.calls else 0.0,
            "max_ms": round(self.max_ms, 3),
        }


class MetricsRegistry(PipelineObserver):
    """Timing/counter registry fed by the pipeline's observer hooks.

    Per-stage :class:`StageStats` plus free-form named counters
    (``increment``), so callers can count routing decisions
    without knowing how the numbers are consumed.

    Thread-safe: counter increments and stage-stat mutation happen under an
    internal lock, so concurrent ``/ask`` requests never lose or duplicate
    updates and ``snapshot()`` always returns a consistent view.
    """

    def __init__(self) -> None:
        self.stages: defaultdict[str, StageStats] = defaultdict(StageStats)
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- observer hooks ----------------------------------------------------

    def on_stage_end(self, stage: str, ctx: "QueryContext", elapsed_ms: float) -> None:
        with self._lock:
            self.stages[stage].record(elapsed_ms)

    def on_error(self, stage: str, error: "PipelineError", ctx: "QueryContext") -> None:
        with self._lock:
            self.stages[stage].errors += 1
            self._increment_locked(f"error.{error.kind}", 1)

    # -- registry ----------------------------------------------------------

    def _increment_locked(self, counter: str, by: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + by

    def increment(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._increment_locked(counter, by)

    def snapshot(self) -> dict:
        """JSON-friendly dump of every stage aggregate and counter."""
        with self._lock:
            return {
                "stages": {
                    name: stats.to_dict() for name, stats in sorted(self.stages.items())
                },
                "counters": dict(sorted(self.counters.items())),
            }

    def reset(self) -> None:
        with self._lock:
            self.stages.clear()
            self.counters.clear()
