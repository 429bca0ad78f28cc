"""ChatIYP configuration."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

__all__ = ["ChatIYPConfig"]


@dataclass
class ChatIYPConfig:
    """Knobs for the ChatIYP pipeline.

    Defaults match the paper's architecture: symbolic retrieval first,
    vector fallback on failure/sparsity, LLM re-ranking before generation.
    """

    seed: int = 0
    dataset_size: str = "medium"
    dataset_seed: int = 42
    vector_top_k: int = 8
    rerank_top_n: int = 6
    use_reranker: bool = True
    use_vector_fallback: bool = True
    # Extension beyond the paper: sub-question decomposition for compound
    # questions (the poster's stated future-work direction). Off by default
    # so the baseline reproduces the published system.
    use_decomposition: bool = False
    sparse_row_threshold: int = 0
    # Routing policy of the staged pipeline: "symbolic-first" (the paper's
    # Figure-1 behaviour), "vector-only", or "hybrid-merge" (run both
    # retrievers and let the reranker arbitrate the merged candidates).
    routing_policy: str = "symbolic-first"
    embedding_dim: int = 256
    # Error-model calibration of the simulated text-to-Cypher backbone.
    error_base: float = 0.28
    error_slope: float = 1.6
    error_power: float = 1.6
    syntax_error_share: float = 0.18

    # -- serving hardening -------------------------------------------------
    # Default per-request time budget in milliseconds (None = unbounded).
    # When the budget is blown mid-request, stages degrade gracefully
    # (vector-only routing, skipped rerank, partial synthesis) and record
    # the decisions under diagnostics["degraded"].
    deadline_ms: float | None = None
    # Bounded LRU over full answers, keyed by normalized question + config
    # fingerprint + graph statistics version (mutations invalidate). 0
    # disables caching.
    answer_cache_size: int = 256
    # Circuit breaker around the symbolic path: trips open after this many
    # consecutive execution-class failures (0 disables the breaker) and
    # probes recovery after the cooldown. Off by default — the simulated
    # backbone's calibrated error rate is model noise, not engine health,
    # and tripping on it would skew the paper's evaluation. Serving
    # deployments (``python -m repro.server --serve``) switch it on.
    breaker_failure_threshold: int = 0
    breaker_reset_ms: float = 30_000.0
    # Retry-with-jittered-backoff for transient (raised) failures in the
    # LLM-facing stages. Total tries per stage call; 1 = no retry.
    llm_retry_attempts: int = 2
    llm_retry_backoff_ms: float = 25.0
    # Intermediate-row budget for every generated Cypher execution (None =
    # unbounded). A query that blows through the budget is cancelled with
    # a ResourceExhausted error and routes to the vector fallback like any
    # other execution failure — a guard against runaway generated scans.
    cypher_row_budget: int | None = None
    # Run every generated query profiled and surface the executed operator
    # tree (rows + wall-time per operator) under
    # diagnostics["cypher_profile"]. Cheap but chatty; off by default.
    capture_cypher_profile: bool = False
    # Single-flight coalescing of concurrent duplicate questions: when N
    # identical questions are in flight at once, one executes the pipeline
    # and the rest wait on its result (the concurrent counterpart of the
    # answer cache, which only dedupes sequential repeats). Coalescing is
    # an optimisation, never a dependency — followers whose deadline runs
    # out, or whose leader failed, execute independently.
    coalesce_inflight: bool = True

    def fingerprint(self) -> str:
        """Stable digest of every knob — part of the answer-cache key.

        Two instances with any differing field never share cache entries;
        the digest is insensitive to field ordering and process identity.
        """
        parts = [
            f"{spec.name}={getattr(self, spec.name)!r}"
            for spec in sorted(fields(self), key=lambda spec: spec.name)
        ]
        return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]
