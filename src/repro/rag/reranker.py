"""LLMReranker — re-ranks retrieval candidates with a shallow LLM scorer.

Given candidates from the symbolic and semantic retrievers, each passage is
scored against the query through the backbone LLM (``[TASK: rerank]``
prompts) and the best ``top_n`` survive into generation (paper §2:
"improve context selection before generation").
"""

from __future__ import annotations

from typing import Callable

from ..llm.base import LLM
from .types import NodeWithScore

__all__ = ["LLMReranker"]


class LLMReranker:
    """Scores and filters candidate context nodes."""

    def __init__(
        self,
        llm: LLM,
        top_n: int = 6,
        max_candidates: int = 24,
        *,
        prompt_builder: Callable[[str, str], str],
    ) -> None:
        self.llm = llm
        self.top_n = top_n
        self.max_candidates = max_candidates
        self.prompt_builder = prompt_builder

    def rerank(self, query: str, candidates: list[NodeWithScore]) -> list[NodeWithScore]:
        """Return the ``top_n`` candidates by LLM relevance score.

        Stable for ties (keeps original retrieval order), deduplicates
        identical node ids, and never scores more than ``max_candidates``.
        """
        seen: set[str] = set()
        unique: list[NodeWithScore] = []
        for candidate in candidates:
            if candidate.node.node_id in seen:
                continue
            seen.add(candidate.node.node_id)
            unique.append(candidate)
        unique = unique[: self.max_candidates]

        rescored: list[NodeWithScore] = []
        for candidate in unique:
            completion = self.llm.complete(self.prompt_builder(query, candidate.node.text))
            score = completion.metadata.get("score")
            if score is None:
                try:
                    score = float(completion.text.strip().split()[0])
                except (ValueError, IndexError):
                    score = 0.0
            rescored.append(NodeWithScore(node=candidate.node, score=float(score)))
        rescored.sort(key=lambda item: -item.score)
        return rescored[: self.top_n]
