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
from .describe import DESCRIBED_LABELS, build_description_corpus
from .retriever import Retriever
from .types import NodeWithScore, RetrievalResult, TextNode

__all__ = ["VectorContextRetriever"]


class VectorContextRetriever(Retriever):
    """Hybrid retrieval over graph-node descriptions.

    Dense cosine similarity provides recall; a lexical boost on distinctive
    query tokens (entity handles like ``AS2497`` or ``203.0.113.0/24``)
    provides the precision dense hashing alone lacks — the usual
    dense + sparse hybrid of production RAG stacks.

    Entry texts are tokenized **once, at index time**: the lexical boost
    consults a per-entry frozen token set instead of re-running
    ``word_tokenize`` on every hit of every query (profiling under
    concurrent load showed that recomputation as the retriever's hottest
    line).  Entries indexed after construction are tokenized lazily on
    first hit and memoised.
    """

    #: fetch this many dense candidates per requested result before boosting
    _OVERSAMPLE = 4
    _LEXICAL_WEIGHT = 0.6

    def __init__(
        self,
        store: GraphStore,
        vector_store: VectorStore | None = None,
        top_k: int = 8,
        labels: tuple[str, ...] = DESCRIBED_LABELS,
    ) -> None:
        self.graph_store = store
        self.top_k = top_k
        self.vector_store = vector_store or VectorStore()
        if len(self.vector_store) == 0:
            self.vector_store.add_batch(build_description_corpus(store, labels))
        # Token sets are derived purely from entry text, so precomputing
        # them cannot change scores — tests assert equality with the
        # recompute-per-hit path.  dict writes are atomic under the GIL;
        # worst case two threads tokenize the same new entry once each.
        self._entry_tokens: dict[str, frozenset[str]] = {
            entry.entry_id: frozenset(word_tokenize(entry.text))
            for entry in self.vector_store.entries()
        }

    @property
    def name(self) -> str:
        return "vector"

    def _tokens_for(self, entry_id: str, text: str) -> frozenset[str]:
        """The entry's cached token set (tokenizing + memoising on miss)."""
        tokens = self._entry_tokens.get(entry_id)
        if tokens is None:
            tokens = frozenset(word_tokenize(text))
            self._entry_tokens[entry_id] = tokens
        return tokens

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
        scored: list[NodeWithScore] = []
        for hit in hits:
            score = hit.score
            if distinctive:
                text_tokens = self._tokens_for(hit.entry_id, hit.text)
                overlap = len(distinctive & text_tokens) / len(distinctive)
                score += self._LEXICAL_WEIGHT * overlap
            scored.append(
                NodeWithScore(
                    node=TextNode(node_id=hit.entry_id, text=hit.text, metadata=hit.metadata),
                    score=round(score, 6),
                )
            )
        scored.sort(key=lambda item: -item.score)
        return RetrievalResult(nodes=scored[: self.top_k], source=self.name)
