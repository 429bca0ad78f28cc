"""Response synthesizer — generation stage (paper §2, stage 3).

The question plus retrieved context go to the backbone LLM, which produces
the natural-language answer.  Structured rows from the symbolic path are
embedded as a JSON payload; semantic-fallback snippets go in as plain
context lines.
"""

from __future__ import annotations

import json
from typing import Callable

from ..cypher.result import ResultSet
from ..llm.base import LLM
from .types import NodeWithScore, RetrievalResult

__all__ = ["ResponseSynthesizer"]


class ResponseSynthesizer:
    """Builds the generation prompt and returns the model's answer text."""

    def __init__(
        self,
        llm: LLM,
        prompt_builder: Callable[[str, str, str], str],
        max_rows: int = 30,
    ) -> None:
        self.llm = llm
        self.prompt_builder = prompt_builder
        self.max_rows = max_rows

    def synthesize(
        self,
        question: str,
        retrieval: RetrievalResult,
        context_nodes: list[NodeWithScore] | None = None,
    ) -> str:
        """Generate the answer for ``question`` given retrieval output."""
        result_json = ""
        if retrieval.result is not None:
            result_json = self._serialize_result(retrieval.result)
        nodes = context_nodes if context_nodes is not None else retrieval.nodes
        context = "\n".join(f"- {item.node.text}" for item in nodes)
        prompt = self.prompt_builder(question, result_json, context)
        return self.llm.complete(prompt).text

    def _serialize_result(self, result: ResultSet) -> str:
        from ..cypher.result import render_value

        rows = []
        for record in result.records[: self.max_rows]:
            row = []
            for value in record.values():
                if value is None or isinstance(value, (bool, int, float, str)):
                    row.append(value)
                elif isinstance(value, list) and all(
                    item is None or isinstance(item, (bool, int, float, str))
                    for item in value
                ):
                    row.append(value)
                else:
                    row.append(render_value(value))
            rows.append(row)
        return json.dumps({"keys": result.keys, "rows": rows})
