"""Error hierarchy of the Cypher engine.

Mirrors the split a Neo4j client sees: syntax errors (query rejected before
execution), type errors (bad operand types at runtime) and generic runtime
errors.  ChatIYP's retrieval fallback logic keys off this hierarchy — a
:class:`CypherSyntaxError` from a generated query triggers the vector
retriever.
"""

from __future__ import annotations

__all__ = [
    "CypherError",
    "CypherSyntaxError",
    "UnsupportedWrite",
    "CypherTypeError",
    "CypherRuntimeError",
    "UnknownFunctionError",
    "ResourceExhausted",
    "CypherDeadlineExceeded",
]


class CypherError(Exception):
    """Base class for every Cypher engine failure."""


class CypherSyntaxError(CypherError):
    """The query text could not be tokenised or parsed.

    Carries the offending position so callers can render a caret
    diagnostic.
    """

    def __init__(self, message: str, position: int | None = None, text: str | None = None):
        self.position = position
        self.text = text
        if position is not None and text is not None:
            line = text.count("\n", 0, position) + 1
            column = position - (text.rfind("\n", 0, position) + 1) + 1
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnsupportedWrite(CypherSyntaxError):
    """A write the engine does not run: MERGE, DELETE, DETACH DELETE,
    REMOVE, or a SET item other than ``variable.key = expression``.

    The only writes are CREATE and ``SET variable.key = expression``.  The
    parser raises this where the clause or item starts, so nothing runs;
    :func:`~repro.cypher.safety.is_read_only` reports such a query as a
    write.
    """


class CypherTypeError(CypherError):
    """An operation was applied to values of an unsupported type."""


class CypherRuntimeError(CypherError):
    """A query failed during execution (unknown variable, bad argument...)."""


class UnknownFunctionError(CypherRuntimeError):
    """A function name does not exist in the registry."""

    def __init__(self, name: str):
        super().__init__(f"unknown function: {name}()")
        self.name = name


class ResourceExhausted(CypherRuntimeError):
    """Execution exceeded the intermediate-row budget passed to ``execute``.

    The serving layer maps this to graceful degradation (vector fallback)
    rather than letting one runaway scan hold memory for the whole
    process.
    """


class CypherDeadlineExceeded(CypherRuntimeError):
    """The per-request serving deadline expired mid-execution.

    Raised cooperatively by the charge operators make for their work (the
    clock is read every 256 charged units), so long scans and walks abort
    close to the deadline instead of overrunning it.
    """
