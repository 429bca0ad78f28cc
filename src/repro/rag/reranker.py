"""LLMReranker — re-ranks retrieval candidates with a shallow LLM scorer.

Given candidates from the symbolic and semantic retrievers, every passage
is scored against the query in one ``[TASK: rerank]`` call to the backbone
LLM, as LlamaIndex's LLMReranker scores a batch of candidates in one
prompt, and the best ``top_n`` survive into generation (paper §2: "improve
context selection before generation").  A single candidate has nothing to
be selected or reordered against, so it passes through without a call.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

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
        prompt_builder: Callable[[str, list[str]], str],
    ) -> None:
        self.llm = llm
        self.top_n = top_n
        self.max_candidates = max_candidates
        self.prompt_builder = prompt_builder

    def rerank(self, query: str, candidates: list[NodeWithScore]) -> list[NodeWithScore]:
        """Return the ``top_n`` candidates by LLM relevance score.

        Stable for ties (keeps original retrieval order), deduplicates
        identical node ids, and never scores more than ``max_candidates``.
        One ``complete`` call scores every candidate when two or more are
        left after the dedupe and the cap; none for zero or one, which
        passes through as it came, with its retrieval score.  The scores
        come from the reply's ``metadata["scores"]``, or else one
        whitespace-separated number per passage from its text.
        """
        seen: set[str] = set()
        unique: list[NodeWithScore] = []
        for candidate in candidates:
            if candidate.node.node_id in seen:
                continue
            seen.add(candidate.node.node_id)
            unique.append(candidate)
        unique = unique[: self.max_candidates]

        if len(unique) < 2:
            return unique[: self.top_n]
        completion = self.llm.complete(
            self.prompt_builder(query, [candidate.node.text for candidate in unique])
        )
        scores = completion.metadata.get("scores")
        if scores is None:
            scores = completion.text.split()
        rescored = [
            NodeWithScore(node=candidate.node, score=_score(scores, index))
            for index, candidate in enumerate(unique)
        ]
        rescored.sort(key=lambda item: -item.score)
        return rescored[: self.top_n]


def _score(scores: Sequence[Any], index: int) -> float:
    """Passage ``index``'s score; 0.0 when the reply has none or an unparsable one."""
    try:
        score = float(scores[index])
    except (IndexError, TypeError, ValueError):
        return 0.0
    return score if math.isfinite(score) else 0.0
