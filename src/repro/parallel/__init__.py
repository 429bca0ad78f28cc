"""Batch results and in-flight request coalescing.

* :class:`BatchOutcome` — the per-item result of
  :meth:`~repro.core.chatiyp.ChatIYP.ask_batch` and ``POST /ask_batch``:
  a value or a captured exception, so one bad question cannot take down
  a whole batch.  Batches run serially, in input order, on the calling
  thread.
* :class:`SingleFlight` — an in-flight request coalescer.  When many
  concurrent callers ask for the same key, one becomes the **leader**
  and executes; the rest wait on the leader's result and never touch
  the pipeline.  The concurrent-duplicate analogue of the answer cache
  (which only dedupes *sequential* repeats); in the server, concurrent
  ``/ask`` handler threads are the callers it coalesces.

Everything here is stdlib-only and transport-agnostic: neither type
knows anything about HTTP, evaluation, or what a "result" is.
"""

from .batch import BatchOutcome
from .singleflight import Flight, SingleFlight

__all__ = [
    "BatchOutcome",
    "Flight",
    "SingleFlight",
]
