"""Result verbalizer: turns Cypher result sets into natural-language answers.

This is the generation stage's "LLM".  Phrasing is picked deterministically
from template banks, keyed by a hash of (seed, question) — so the ChatIYP
answer and the validation model's reference answer (different seeds) state
the same facts with different surface forms, exactly the regime where BLEU
under-rewards correct answers (the poster's Finding 1).
"""

from __future__ import annotations

import hashlib
import random

from ..cypher.result import Record, ResultSet, render_value

__all__ = ["ResultVerbalizer"]

_MAX_LIST_ITEMS = 12
_MAX_ROWS = 5


def _humanize(column: str) -> str:
    """Turn a column key into a readable phrase."""
    column = column.split(".")[-1]
    column = column.replace("_", " ").strip()
    return column or "value"


def _join_values(values: list[str]) -> str:
    if not values:
        return ""
    if len(values) == 1:
        return values[0]
    return ", ".join(values[:-1]) + " and " + values[-1]


class ResultVerbalizer:
    """Deterministic, template-bank natural-language generation."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def _rng(self, question: str) -> random.Random:
        digest = hashlib.md5(f"verbalize:{self.seed}:{question}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "little"))

    # ------------------------------------------------------------------

    def verbalize(self, question: str, result: ResultSet) -> str:
        """Produce the answer text for ``result``."""
        rng = self._rng(question)
        if not result.records:
            return rng.choice(
                [
                    "I could not find any matching information in the IYP graph.",
                    "The IYP graph contains no records matching this question.",
                    "No matching data was found in the Internet Yellow Pages.",
                ]
            )
        if len(result.keys) == 1:
            return self._single_column(question, result, rng)
        if len(result.records) == 1:
            return self._single_row(result.records[0], rng)
        return self._table(result, rng)

    def verbalize_context(self, question: str, snippets: list[str]) -> str:
        """Fallback answer from vector-retrieved node descriptions.

        Used when symbolic translation failed: honest about its indirect
        provenance, and summarises the closest graph context instead.
        """
        rng = self._rng(question)
        if not snippets:
            return "I could not retrieve relevant information from the IYP graph."
        lead = rng.choice(
            [
                "I could not translate this question into a precise graph query, "
                "but the most closely related information in IYP is:",
                "A direct query was not possible; the closest matching IYP records are:",
                "Based on the most similar entries in the IYP graph:",
            ]
        )
        shown = snippets[:3]
        return lead + " " + " ".join(f"{snippet}." for snippet in shown)

    # ------------------------------------------------------------------

    def _single_column(self, question: str, result: ResultSet, rng: random.Random) -> str:
        column = _humanize(result.keys[0])
        count = len(result.records)
        # render_value is pure: render only the values the answer shows.
        shown = [render_value(record[0]) for record in result.records[:_MAX_LIST_ITEMS]]
        if count == 1:
            value = shown[0]
            templates = [
                f"The {column} is {value}.",
                f"{value} is the {column}.",
                f"According to the IYP graph, the {column} is {value}.",
                f"The answer is {value}.",
            ]
            if "percent" in result.keys[0].lower() or "percent" in question.lower():
                templates.append(f"It accounts for {value}% of the population.")
                templates.append(f"The share is {value}%.")
            return rng.choice(templates)
        more = count - len(shown)
        joined = _join_values(shown)
        suffix = f" and {more} more" if more > 0 else ""
        templates = [
            f"The {column}s are: {joined}{suffix}.",
            f"There are {count} results: {joined}{suffix}.",
            f"IYP lists the following {column}s: {joined}{suffix}.",
        ]
        return rng.choice(templates)

    def _single_row(self, record: Record, rng: random.Random) -> str:
        pairs = [
            f"{_humanize(key)} {render_value(value)}"
            for key, value in record.items()
            if value is not None
        ]
        joined = _join_values(pairs)
        templates = [
            f"The result is: {joined}.",
            f"IYP reports {joined}.",
            f"According to the graph, {joined}.",
        ]
        return rng.choice(templates)

    def _table(self, result: ResultSet, rng: random.Random) -> str:
        rows = []
        for record in result.records[:_MAX_ROWS]:
            pairs = ", ".join(
                f"{_humanize(key)} {render_value(value)}" for key, value in record.items()
            )
            rows.append(f"({pairs})")
        more = len(result.records) - len(rows)
        suffix = f"; {more} further rows omitted" if more > 0 else ""
        lead = rng.choice(
            [
                f"Found {len(result.records)} results.",
                f"The query returned {len(result.records)} rows.",
                f"{len(result.records)} matching records were found.",
            ]
        )
        return f"{lead} Top results: " + "; ".join(rows) + suffix + "."
