"""TextToCypherRetriever — the symbolic retrieval path (paper §2, stage 2).

An LLM maps the user question to a Cypher query (through the injected
prompt chain); the query runs against the graph engine and the structured
rows come back as retrieval context.  Failures — untranslatable questions,
syntax errors from the generated query, runtime errors — are captured in
the result so the pipeline can fall back to semantic retrieval.
"""

from __future__ import annotations

import logging
from typing import Callable, Optional

from ..cypher.errors import CypherError
from ..cypher.executor import CypherEngine
from ..cypher.result import ResultSet, render_value
from ..graph.store import GraphStore
from ..llm.base import LLM
from ..serving.deadline import Deadline
from .retriever import Retriever
from .types import NodeWithScore, RetrievalResult, TextNode

__all__ = ["TextToCypherRetriever", "derived_row_budget"]

logger = logging.getLogger(__name__)

_MAX_CONTEXT_ROWS = 25

# The row budget of every query an LLM generates or a client sends to
# ``POST /cypher``, so a runaway query stops at a count fixed by the graph
# on any host: 2 charged units per node plus relationship, plus a floor for
# tiny graphs (an empty one would get 0).  Peak charge per query over the
# distinct gold and generated texts of CypherEval sweeps 7-12, as a share
# of nodes + relationships on medium / large: gold 0.10x / 0.10x
# (shortest-path searches charge their steps), dropped filters 0.59x /
# 0.52x; 2x leaves 3.4x.
ROW_BUDGET_PER_ELEMENT = 2
ROW_BUDGET_FLOOR = 10_000


def derived_row_budget(store: GraphStore) -> int:
    """``ROW_BUDGET_PER_ELEMENT x (nodes + relationships) + ROW_BUDGET_FLOOR``
    of ``store`` as it is now."""
    elements = store.node_count + store.relationship_count
    return ROW_BUDGET_PER_ELEMENT * elements + ROW_BUDGET_FLOOR


class TextToCypherRetriever(Retriever):
    """LLM → Cypher → graph execution → structured context."""

    def __init__(
        self,
        engine: CypherEngine,
        llm: LLM,
        schema_text: str,
        prompt_builder: Callable[[str, str], str],
    ) -> None:
        self.engine = engine
        self.llm = llm
        self.schema_text = schema_text
        self.prompt_builder = prompt_builder

    @property
    def name(self) -> str:
        return "text2cypher"

    def retrieve(self, query: str, deadline: Optional[Deadline] = None) -> RetrievalResult:
        prompt = self.prompt_builder(query, self.schema_text)
        completion = self.llm.complete(prompt)
        cypher = completion.metadata.get("cypher")
        generation_meta = {
            key: completion.metadata.get(key)
            for key in ("confidence", "intent", "perturbation", "coverage")
        }
        if not cypher:
            return RetrievalResult(
                source=self.name,
                error="translation_failed",
                metadata=generation_meta,
            )
        logger.debug("generated cypher for %r: %s", query, cypher)
        try:
            result = self.engine.execute(
                cypher, deadline=deadline, row_budget=derived_row_budget(self.engine.store)
            )
        except CypherError as exc:
            logger.debug("generated cypher failed: %s", exc)
            return RetrievalResult(
                source=self.name,
                cypher=cypher,
                error=f"{type(exc).__name__}: {exc}",
                error_type=type(exc),
                metadata=generation_meta,
            )
        return RetrievalResult(
            nodes=self._result_nodes(result),
            source=self.name,
            cypher=cypher,
            result=result,
            metadata=generation_meta,
        )

    @staticmethod
    def _result_nodes(result: ResultSet) -> list[NodeWithScore]:
        """Render result rows into scored text nodes (symbolic hits score 1.0)."""
        nodes = []
        for index, record in enumerate(result.records[:_MAX_CONTEXT_ROWS]):
            text = ", ".join(
                f"{key}: {render_value(value)}" for key, value in record.items()
            )
            nodes.append(
                NodeWithScore(
                    node=TextNode(node_id=f"row-{index}", text=text, metadata={"row": index}),
                    score=1.0,
                )
            )
        return nodes
