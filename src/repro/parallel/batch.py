"""BatchOutcome — the per-item result of a batch of questions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["BatchOutcome"]


@dataclass
class BatchOutcome:
    """Result of one item in a batch: either a value or a captured error."""

    index: int
    value: Any = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None
