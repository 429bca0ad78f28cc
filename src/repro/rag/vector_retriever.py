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
    A retrieval runs on the calling thread, with no BLAS call: the index's
    float32 prefilter and float64 re-score (:class:`VectorStore`) give the
    rows and scores of the dense top candidates, whose bits depend on no
    thread count; the lexical boost counts each candidate's distinctive
    tokens in the index's token store, by row; one sort ranks the boosted
    scores, rounded to 6 digits, ties in hit order; and only the ``top_k``
    best become :class:`NodeWithScore` objects.
    """

    #: fetch this many dense candidates per requested result before boosting
    _OVERSAMPLE = 4
    _LEXICAL_WEIGHT = 0.6

    def __init__(self, store: GraphStore, top_k: int = 8) -> None:
        self.top_k = top_k
        self.vector_store = VectorStore(build_description_corpus(store))

    @property
    def name(self) -> str:
        return "vector"

    def retrieve(self, query: str, deadline: Optional[Deadline] = None) -> RetrievalResult:
        # One bounded scan of the corpus: there is nothing to cut short, so
        # the deadline is not consulted.
        index = self.vector_store
        rows, scores = index.search(query, top_k=self.top_k * self._OVERSAMPLE, min_score=0.02)
        distinctive = {
            token
            for token in word_tokenize(query)
            if token not in STOPWORDS and (len(token) > 3 or any(c.isdigit() for c in token))
        }
        if distinctive:
            overlaps = index.token_overlap(distinctive, rows)
            scores = [score + self._LEXICAL_WEIGHT * (overlap / len(distinctive))
                      for score, overlap in zip(scores, overlaps)]
        rounded = [round(score, 6) for score in scores]
        # a stable sort: ties stay in hit order, also in reverse
        ranked = sorted(range(len(rounded)), key=rounded.__getitem__, reverse=True)
        entries = index.entries()
        nodes = []
        for position in ranked[: self.top_k]:
            entry = entries[rows[position]]
            node = TextNode(node_id=entry.entry_id, text=entry.text, metadata=dict(entry.metadata))
            nodes.append(NodeWithScore(node=node, score=rounded[position]))
        return RetrievalResult(nodes=nodes, source=self.name)
