"""In-memory spans recorded around the system's public methods.

The traced run installs wrappers on *instances* (never classes), so the
untraced run that produces the end-to-end numbers executes unmodified
code.  Each span records its name, start, end, parent span and request
id; a thread-local stack supplies the parent.  Spans stay in memory and
are written to disk once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from repro.rag import PipelineObserver

__all__ = ["Span", "SpanRecorder", "StageSpans", "self_times", "instrument_chatiyp"]

_TASK_RE = re.compile(r"\[TASK:\s*(\w+)\]")


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    request: Optional[int]

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class SpanRecorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Optional[int] = None) -> Span:
        """Start a span on this thread; the returned open span (``end`` 0)
        is the token for :meth:`close`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        token = Span(next(self._ids), parent.span_id if parent else None, name,
                     time.perf_counter(), 0.0, request)
        stack.append(token)
        return token

    def close(self, token: Span) -> None:
        """End ``token`` and any span still open above it (a raised stage)."""
        end = time.perf_counter()
        stack = self._stack()
        while stack:
            top = stack.pop()
            with self._lock:
                self.spans.append(replace(top, end=end))
            if top is token:
                return

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        token = self.open(name, request)
        try:
            yield
        finally:
            self.close(token)

    def wrap(self, obj, method: str, name: Callable[..., str] | str) -> None:
        """Replace ``obj.method`` by a spanned call (instance attribute)."""
        original = getattr(obj, method)
        namer = name if callable(name) else (lambda *args, **kwargs: name)

        def spanned(*args, **kwargs):
            with self.span(namer(*args, **kwargs)):
                return original(*args, **kwargs)

        setattr(obj, method, spanned)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


class StageSpans(PipelineObserver):
    """Pipeline observer opening one span per stage (``rag.<stage>``)."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._open = threading.local()

    def on_stage_start(self, stage, ctx) -> None:
        self._open.token = self.recorder.open(f"rag.{stage}")

    def on_stage_end(self, stage, ctx, elapsed_ms) -> None:
        token = getattr(self._open, "token", None)
        if token is not None:
            self._open.token = None
            self.recorder.close(token)


def _llm_task(prompt: str, *args, **kwargs) -> str:
    match = _TASK_RE.search(prompt)
    return f"llm.{match.group(1).lower() if match else 'answer'}"


def instrument_chatiyp(chatiyp, recorder: SpanRecorder) -> None:
    """Span the layer boundaries of one ``ChatIYP`` (built with a
    :class:`StageSpans` observer for the stage spans)."""
    recorder.wrap(chatiyp.llm, "complete", _llm_task)
    recorder.wrap(chatiyp.engine, "execute", "cypher.execute")
    pipeline = chatiyp.pipeline
    if pipeline.vector is not None:
        recorder.wrap(pipeline.vector.vector_store, "search", "embed.search")
    if pipeline.reranker is not None:
        recorder.wrap(pipeline.reranker, "rerank", "rerank.rerank")
    recorder.wrap(pipeline.synthesizer, "synthesize", "synthesis.synthesize")


def self_times(spans: Iterable[Span]) -> dict[str, list[float]]:
    """Self time (ms) of every span, grouped by name.

    A span's self time is its duration minus the part of it covered by its
    direct children; children of one span run on its thread, so they are
    disjoint and their durations add.
    """
    spans = list(spans)
    child_ms: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_ms[span.parent] += span.ms
    by_name: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(max(0.0, span.ms - child_ms[span.span_id]))
    return dict(by_name)
