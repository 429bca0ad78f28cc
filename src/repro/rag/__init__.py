"""Mini retrieval-augmented-generation framework (LlamaIndex substitute).

:class:`RetrieverQueryEngine` runs the paper's Figure-1 flow as four
fixed steps of one ``query()`` call: text-to-Cypher retrieval, routing,
reranking and synthesis.  The route follows from the retrievers the
engine is built with: symbolic rows when the generated query returned
some, vector retrieval otherwise (when a vector retriever is given), and
vector retrieval only when there is no text-to-Cypher retriever.
"""

from .decompose import DecomposingQueryEngine, DecompositionPlan, QuestionDecomposer
from .describe import DESCRIBED_LABELS, build_description_corpus
from .errors import (
    CircuitOpen,
    DeadlineExceeded,
    EmptyResult,
    ExecutionError,
    PipelineError,
    SymbolicTranslationError,
    classify_symbolic_failure,
)
from .observer import (
    MetricsRegistry,
    PipelineObserver,
    StageSpan,
    StageStats,
    TracingObserver,
)
from .pipeline import PipelineResponse, QueryContext, RetrieverQueryEngine
from .reranker import LLMReranker
from .retriever import Retriever
from .synthesizer import ResponseSynthesizer
from .text2cypher_retriever import TextToCypherRetriever
from .types import NodeWithScore, RetrievalResult, TextNode
from .vector_retriever import VectorContextRetriever

__all__ = [
    "Retriever",
    "TextNode",
    "NodeWithScore",
    "RetrievalResult",
    "TextToCypherRetriever",
    "VectorContextRetriever",
    "LLMReranker",
    "ResponseSynthesizer",
    "RetrieverQueryEngine",
    "PipelineResponse",
    "QueryContext",
    "DecomposingQueryEngine",
    "DecompositionPlan",
    "QuestionDecomposer",
    # observability
    "PipelineObserver",
    "TracingObserver",
    "StageSpan",
    "MetricsRegistry",
    "StageStats",
    # error taxonomy
    "PipelineError",
    "SymbolicTranslationError",
    "ExecutionError",
    "EmptyResult",
    "DeadlineExceeded",
    "CircuitOpen",
    "classify_symbolic_failure",
    "build_description_corpus",
    "DESCRIBED_LABELS",
]
