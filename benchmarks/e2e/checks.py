"""Output checks: generated queries against the interpreter, gold rows.

The interpreter (``planner=False, compile_expressions=False,
csr_snapshot=False``) is the engine's semantic reference.  Rows compare
as multisets, or in order when the query has ``ORDER BY``; errors compare
by class.  A deadline overrun is a failure of the run, not a wrong
answer, so it is counted by the workloads and skipped here.

A workload holds every operation's rows until the checks run, so rows are
kept as digests (:class:`Rows`): the rows themselves would add about a
tenth to the peak RSS the benchmark reports for the system under test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.cypher import CypherDeadlineExceeded, CypherEngine, CypherError, render_value

__all__ = [
    "Rows",
    "Outcome",
    "DEADLINE",
    "summarize",
    "rows_of",
    "error_class",
    "same",
    "Reference",
    "CheckReport",
    "describe",
    "digest",
]


@dataclass(frozen=True)
class Rows:
    """A result's rendered rows: their count and digests in and out of order."""

    count: int
    ordered: str
    unordered: str


#: an outcome is a result's rows or an error class name
Outcome = Union[Rows, str]
DEADLINE = CypherDeadlineExceeded.__name__


def summarize(rows: list) -> Rows:
    """Digest rendered value tuples (``sorted`` order stands for the multiset)."""
    rows = [list(row) for row in rows]
    return Rows(len(rows), _hash(rows), _hash(sorted(rows)))


def rows_of(result) -> Rows:
    """The rows of a ``ResultSet`` (column names dropped)."""
    return summarize([[render_value(value) for value in record.values()]
                      for record in result.records])


def _hash(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def error_class(message: str) -> str:
    """Class name of an engine error rendered as ``"<TypeName>: <message>"``."""
    return message.split(":", 1)[0]


def same(cypher: str, left: Outcome, right: Outcome) -> bool:
    """Equal outcomes: same error class, or rows equal (as multisets unless ordered)."""
    if isinstance(left, str) or isinstance(right, str):
        return left == right
    if "ORDER BY" in cypher.upper():
        return left.ordered == right.ordered
    return left.unordered == right.unordered


class Reference:
    """The interpreter over one store, memoised per graph version."""

    def __init__(self, store) -> None:
        self.store = store
        self.engine = CypherEngine(
            store, planner=False, compile_expressions=False, csr_snapshot=False
        )
        self._memo: dict[str, Outcome] = {}
        self._version = store.stats_version

    def outcome(self, cypher: str) -> Outcome:
        if self.store.stats_version != self._version:
            self._memo.clear()
            self._version = self.store.stats_version
        if cypher not in self._memo:
            try:
                self._memo[cypher] = rows_of(self.engine.execute(cypher))
            except CypherError as exc:
                self._memo[cypher] = type(exc).__name__
        return self._memo[cypher]


@dataclass
class CheckReport:
    """Counts of checked outputs and the first few mismatches."""

    checked: int = 0
    mismatches: list = field(default_factory=list)

    def compare(self, cypher: str, observed: Outcome, reference: Outcome) -> None:
        if observed == DEADLINE:
            return
        self.checked += 1
        if not same(cypher, observed, reference):
            self.mismatches.append(
                {"cypher": cypher, "observed": describe(observed),
                 "reference": describe(reference)}
            )

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {"checked": self.checked, "mismatches": self.mismatches[:10],
                "mismatch_count": len(self.mismatches)}


def describe(outcome: Outcome) -> str:
    """One line for an outcome: the error class, or the row count and digest."""
    if isinstance(outcome, str):
        return outcome
    return f"{outcome.count} rows {outcome.ordered}"


def digest(items: Iterable[tuple[str, Optional[str], str]]) -> str:
    """Order-sensitive digest of (question, cypher, answer) triples."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(json.dumps(item).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]
