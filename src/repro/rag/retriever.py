"""Retriever interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional

from .types import RetrievalResult

if TYPE_CHECKING:  # pragma: no cover
    from ..serving.deadline import Deadline

__all__ = ["Retriever"]


class Retriever(ABC):
    """One retrieval strategy: query text in, scored context out."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier used in provenance records."""

    @abstractmethod
    def retrieve(
        self, query: str, deadline: Optional["Deadline"] = None
    ) -> RetrievalResult:
        """Retrieve context for ``query``; never raises on query failure —
        failures are reported through ``RetrievalResult.error``.

        ``deadline`` is the request's remaining time budget; a retriever
        whose work can overrun it stops cooperatively and reports the
        overrun as an error."""
