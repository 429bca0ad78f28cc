"""VectorContextRetriever — the semantic retrieval path (paper §2).

When structured queries fail or return sparse results, dense embeddings of
node descriptions fetch textual context of nearby graph nodes via vector
similarity.  Useful for vague questions and the robustness fallback.
"""

from __future__ import annotations

from typing import Optional

from ..embed.vector_store import VectorStore
from ..graph.store import GraphStore
from ..nlp.tokenize import STOPWORDS, word_tokenize
from ..serving.deadline import Deadline
from .describe import build_description_corpus
from .retriever import Retriever
from .types import NodeWithScore, RetrievalResult, TextNode

__all__ = ["VectorContextRetriever"]


class VectorContextRetriever(Retriever):
    """Hybrid retrieval over graph-node descriptions.

    Dense cosine similarity provides recall; a lexical boost on distinctive
    query tokens (entity handles like ``AS2497`` or ``203.0.113.0/24``)
    provides the precision dense hashing alone lacks — the usual
    dense + sparse hybrid of production RAG stacks.

    The index is built once, from the graph as it stands at construction,
    and is read-only afterwards: later graph writes do not refresh it.
    The lexical boost reads each hit's token set, frozen when the index
    tokenized the entry, by the hit's row.
    """

    #: fetch this many dense candidates per requested result before boosting
    _OVERSAMPLE = 4
    _LEXICAL_WEIGHT = 0.6

    def __init__(self, store: GraphStore, top_k: int = 8) -> None:
        self.graph_store = store
        self.top_k = top_k
        self.vector_store = VectorStore(build_description_corpus(store))

    @property
    def name(self) -> str:
        return "vector"

    def retrieve(self, query: str, deadline: Optional[Deadline] = None) -> RetrievalResult:
        # One bounded scan of the corpus: there is nothing to cut short, so
        # the deadline is not consulted.
        hits = self.vector_store.search(
            query, top_k=self.top_k * self._OVERSAMPLE, min_score=0.02
        )
        distinctive = {
            token
            for token in word_tokenize(query)
            if token not in STOPWORDS and (len(token) > 3 or any(c.isdigit() for c in token))
        }
        entries = self.vector_store.entries()
        scored: list[NodeWithScore] = []
        for hit in hits:
            score = hit.score
            if distinctive:
                overlap = len(distinctive & entries[hit.row].tokens) / len(distinctive)
                score += self._LEXICAL_WEIGHT * overlap
            scored.append(
                NodeWithScore(
                    node=TextNode(node_id=hit.entry_id, text=hit.text, metadata=hit.metadata),
                    score=round(score, 6),
                )
            )
        scored.sort(key=lambda item: -item.score)
        return RetrievalResult(nodes=scored[: self.top_k], source=self.name)
