"""Shared data types of the retrieval framework."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..cypher.result import ResultSet

__all__ = ["TextNode", "NodeWithScore", "RetrievalResult"]


@dataclass(frozen=True)
class TextNode:
    """A retrievable text unit (a graph node's description, or a result row)."""

    node_id: str
    text: str
    metadata: dict[str, Any] = field(default_factory=dict, hash=False, compare=False)


@dataclass(frozen=True)
class NodeWithScore:
    """A retrieved node plus its retrieval score."""

    node: TextNode
    score: float

    def __repr__(self) -> str:
        return f"NodeWithScore({self.node.node_id!r}, {self.score:.3f})"


@dataclass
class RetrievalResult:
    """Everything one retriever produced for a query.

    ``source`` identifies the retriever ("text2cypher" / "vector").  For the
    symbolic path, ``cypher`` and ``result`` carry the executed query and
    its structured rows; ``error`` records why execution failed, which the
    pipeline uses to decide on the semantic fallback: ``"translation_failed"``,
    or an engine exception rendered as ``"<TypeName>: <message>"``, whose
    class ``error_type`` holds.
    """

    nodes: list[NodeWithScore] = field(default_factory=list)
    source: str = ""
    cypher: Optional[str] = None
    result: Optional[ResultSet] = None
    error: Optional[str] = None
    error_type: Optional[type[Exception]] = None
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        """True when retrieval executed without error."""
        return self.error is None
