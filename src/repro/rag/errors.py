"""Typed error taxonomy of the RAG pipeline.

Replaces the stringly-typed ``RetrievalResult.error`` inspection that used
to be scattered through the orchestration code.  Each failure a query can
hit on its way through the pipeline steps maps to exactly one class:

* :class:`SymbolicTranslationError` — the LLM produced no Cypher at all;
* :class:`ExecutionError` — generated Cypher failed to parse or run;
* :class:`EmptyResult` — the query ran but returned no rows (a sparse
  result), so the router treats it as a miss;
* :class:`DeadlineExceeded` — the per-request time budget ran out before
  the step could run (serving hardening; the step degrades instead);
* :class:`CircuitOpen` — the symbolic path's circuit breaker refused the
  attempt, so the router falls back to vector retrieval.

The classes are exceptions so callers *may* raise them, but the pipeline
itself never raises them: its steps record the instance on
``QueryContext.error`` and observers see it through ``on_error``.  An
unexpected exception inside a step propagates to the caller; observers
see it first, wrapped in a plain :class:`PipelineError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..cypher import errors as cypher_errors

if TYPE_CHECKING:  # pragma: no cover
    from .types import RetrievalResult

__all__ = [
    "PipelineError",
    "SymbolicTranslationError",
    "ExecutionError",
    "ResourceExhausted",
    "EmptyResult",
    "DeadlineExceeded",
    "CircuitOpen",
    "classify_symbolic_failure",
]


class PipelineError(Exception):
    """Base of the pipeline error taxonomy."""

    #: short machine-readable class tag (stable across renames)
    kind = "pipeline_error"

    def __init__(self, message: str = "", cypher: Optional[str] = None) -> None:
        super().__init__(message)
        self.cypher = cypher

    def to_dict(self) -> dict:
        """JSON-friendly rendering for diagnostics payloads."""
        return {"kind": self.kind, "type": type(self).__name__, "message": str(self)}


class SymbolicTranslationError(PipelineError):
    """The backbone could not translate the question into Cypher."""

    kind = "translation"


class ExecutionError(PipelineError):
    """The generated Cypher failed at parse or execution time.

    ``unparsable`` marks a text the engine rejected before running it (a
    syntax error, or a write it does not run): a translation-class signal
    that says nothing about the engine's health.
    """

    kind = "execution"
    unparsable = False


class ResourceExhausted(ExecutionError):
    """The query blew through the engine's intermediate-row budget.

    A subclass of :class:`ExecutionError` (it still counts as a breaker
    failure and routes to the vector fallback) with its own ``kind`` so
    dashboards can tell runaway scans from plain bad Cypher.
    """

    kind = "resource_exhausted"


class EmptyResult(PipelineError):
    """The query executed but produced no usable rows (sparse result)."""

    kind = "empty_result"


class DeadlineExceeded(PipelineError):
    """The request's time budget ran out before the step could run.

    Raised nowhere: steps that find the deadline blown record this and
    degrade to the cheapest viable route (vector-only retrieval, skipped
    rerank, or a partial answer) instead of hanging.
    """

    kind = "deadline"


class CircuitOpen(PipelineError):
    """The symbolic path's circuit breaker is open; the attempt was skipped.

    Recorded so the router falls back to vector retrieval while the
    breaker cools down; never counts as a breaker failure itself.
    """

    kind = "circuit_open"


def classify_symbolic_failure(retrieval: "RetrievalResult") -> Optional[PipelineError]:
    """Map a symbolic :class:`RetrievalResult` onto the taxonomy.

    Returns ``None`` for a clean retrieval with rows.  This is the one
    place sparsity is decided: a result set with no rows counts as
    :class:`EmptyResult`.
    """
    if retrieval.error == "translation_failed":
        return SymbolicTranslationError("the question could not be translated")
    if retrieval.error is not None:
        # Two runtime types of engine error get their own taxonomy slots;
        # one rejected before the query runs (a syntax error, or a write the
        # engine does not run) is unparsable.  A result without the class
        # counts as a plain execution failure.
        failure = retrieval.error_type or Exception
        if issubclass(failure, cypher_errors.CypherDeadlineExceeded):
            return DeadlineExceeded(retrieval.error)
        if issubclass(failure, cypher_errors.ResourceExhausted):
            return ResourceExhausted(retrieval.error, cypher=retrieval.cypher)
        error = ExecutionError(retrieval.error, cypher=retrieval.cypher)
        error.unparsable = issubclass(failure, cypher_errors.CypherSyntaxError)
        return error
    if retrieval.result is not None and not retrieval.result.records:
        # The message is part of the diagnostics contract; its wording
        # predates the single zero-row rule and is kept byte for byte.
        return EmptyResult("query returned 0 row(s) (threshold 0)", cypher=retrieval.cypher)
    return None
