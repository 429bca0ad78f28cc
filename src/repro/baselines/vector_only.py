"""Vector-only baseline: pure semantic retrieval, no symbolic translation.

The opposite corner from Pythia: every question is answered from the
nearest graph-node descriptions.  Robust — it always says *something*
related — but without executing queries it cannot produce the precise
values (counts, percentages, ranks) most IYP questions ask for.

This baseline is not a bespoke code path: it is the standard
:class:`~repro.rag.RetrieverQueryEngine` built without a text-to-Cypher
retriever, which routes every question to vector retrieval — the same
steps, observers and synthesis the full system uses, minus the symbolic
step.
"""

from __future__ import annotations

from typing import Optional

from ..core.chatiyp import ChatResponse
from ..core.config import ChatIYPConfig
from ..core.prompts import answer_prompt
from ..cypher.executor import CypherEngine
from ..iyp.generator import IYPDataset
from ..iyp.loader import load_dataset
from ..llm.simulated import SimulatedLLM
from ..nlp.entities import Gazetteer
from ..rag.pipeline import RetrieverQueryEngine
from ..rag.synthesizer import ResponseSynthesizer
from ..rag.vector_retriever import VectorContextRetriever

__all__ = ["VectorOnlyBaseline"]


class VectorOnlyBaseline:
    """Answers every question from vector-retrieved node descriptions."""

    def __init__(
        self,
        dataset: Optional[IYPDataset] = None,
        config: Optional[ChatIYPConfig] = None,
    ) -> None:
        self.config = config or ChatIYPConfig()
        self.dataset = dataset or load_dataset(
            self.config.dataset_size, self.config.dataset_seed
        )
        self.store = self.dataset.store
        self.engine = CypherEngine(self.store)  # for harness compatibility
        self.llm = SimulatedLLM(
            gazetteer=Gazetteer.from_dataset(self.dataset), seed=self.config.seed
        )
        self.retriever = VectorContextRetriever(self.store)
        self.synthesizer = ResponseSynthesizer(self.llm, prompt_builder=answer_prompt)
        self.pipeline = RetrieverQueryEngine(
            text2cypher=None,
            vector=self.retriever,
            synthesizer=self.synthesizer,
        )

    @property
    def name(self) -> str:
        return "vector-only-baseline"

    def ask(self, question: str) -> ChatResponse:
        """Retrieve similar node descriptions and synthesise from them."""
        question = (question or "").strip()
        if not question:
            return ChatResponse(
                question=question,
                answer="Please ask a question about Internet infrastructure.",
                cypher=None,
                retrieval_source="none",
                used_fallback=False,
            )
        response = self.pipeline.query(question)
        return ChatResponse(
            question=question,
            answer=response.answer,
            cypher=None,
            retrieval_source=response.retrieval_source,
            used_fallback=True,
            context_snippets=[item.node.text for item in response.context],
            result=None,
            diagnostics={"baseline": self.name, **response.diagnostics},
        )
