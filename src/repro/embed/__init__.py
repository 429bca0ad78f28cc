"""Deterministic embeddings and the in-memory vector store."""

from .model import ContextualEmbedding, HashingEmbedding, cosine_similarity
from .vector_store import VectorEntry, VectorStore

__all__ = [
    "HashingEmbedding",
    "ContextualEmbedding",
    "cosine_similarity",
    "VectorStore",
    "VectorEntry",
]
