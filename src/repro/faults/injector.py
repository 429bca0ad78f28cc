"""The fault injector and the ``fault_point`` hook threaded through hot paths.

Design constraints, in order:

1. **Zero overhead when inactive.**  Every hot path calls
   :func:`fault_point` unconditionally; with no plan active that is one
   module-global load and a ``None`` check — no locks, no dict lookups,
   no clock reads.
2. **Deterministic per (seed, scope, site, invocation).**  Whether a
   fault fires at the *k*-th invocation of a site within a scope is a
   pure function of the plan seed — never of wall-clock time, thread
   identity, or the global RNG.  The chaos runner scopes each request to
   its index, so request *i*'s fault schedule is identical across runs
   regardless of thread interleaving, and :meth:`FaultInjector.schedule`
   can preview it without executing anything.
3. **Faults travel organic failure paths.**  ``error`` specs raise
   exceptions from :mod:`repro.faults.errors` that the targeted layer
   already catches (or deliberately doesn't); ``latency`` specs sleep
   through an injectable sleeper; mutation kinds (``garbage``, ``shed``)
   are returned to the call site, which interprets them.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Union

from .errors import InjectedCypherError, InjectedTimeout, InjectedTransientError
from .plan import FaultPlan

__all__ = [
    "SITE_CATALOGUE",
    "FaultAction",
    "FaultInjector",
    "fault_point",
    "activate",
    "deactivate",
    "activated",
    "active_injector",
]

#: Every named injection site threaded through the codebase.  Keep in sync
#: with docs/architecture.md § "Fault injection and chaos testing".
SITE_CATALOGUE = (
    "llm.text2cypher",   # simulated backbone, translation head
    "llm.answer",        # simulated backbone, synthesis head
    "llm.rerank",        # simulated backbone, rerank head (reranks of 2+ candidates)
    "llm.judge",         # simulated backbone, judge head (eval only)
    "graph.execute",     # CypherEngine.execute — the symbolic hot path
    "vector.search",     # VectorStore.search — the semantic hot path
    "cache.get",         # AnswerCache lookup
    "singleflight.begin",  # SingleFlight registration (leader handoff)
    "serving.execute",   # ChatIYP._execute — one full pipeline run
    "admission.acquire",  # AdmissionController slot acquisition
    "stage.symbolic",    # RetrieverQueryEngine.query, before each step
    "stage.routing",
    "stage.rerank",
    "stage.synthesis",
)


@dataclass(frozen=True)
class FaultAction:
    """One decided injection: what fires at which site invocation."""

    site: str
    kind: str
    spec_index: int
    invocation: int
    latency_ms: float = 0.0
    error: str = "transient"
    payload: Optional[str] = None

    def make_error(self) -> Exception:
        message = (
            f"injected {self.error} fault at {self.site} "
            f"(spec {self.spec_index}, invocation {self.invocation})"
        )
        if self.error == "timeout":
            return InjectedTimeout(message)
        if self.error == "cypher":
            return InjectedCypherError(message)
        return InjectedTransientError(message)


class FaultInjector:
    """Executes a :class:`FaultPlan` at named sites, deterministically."""

    def __init__(
        self,
        plan: FaultPlan,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.plan = plan
        self._sleep = sleep
        self._lock = threading.Lock()
        self._scope = threading.local()
        #: per (scope, site) invocation counters
        self._counters: dict[tuple[Any, str], int] = {}
        #: per-site fire counts (observability only)
        self._fires: dict[str, int] = {}
        self._injected_ms = 0.0

    # -- scoping -----------------------------------------------------------

    @contextmanager
    def scope(self, token: Any) -> Iterator[None]:
        """Attribute this thread's decisions to ``token`` (request index).

        Scopes make decisions *per-request* deterministic: two runs give
        request ``i`` the same fault schedule no matter how threads
        interleave.  Unscoped threads share the ``None`` scope.
        """
        previous = getattr(self._scope, "token", None)
        self._scope.token = token
        try:
            yield
        finally:
            self._scope.token = previous

    @property
    def current_scope(self) -> Any:
        return getattr(self._scope, "token", None)

    # -- deterministic decisions -------------------------------------------

    def _draw(self, scope: Any, site: str, spec_index: int, invocation: int) -> float:
        """Uniform [0, 1) draw, a pure function of its arguments + seed."""
        token = f"{self.plan.seed}|{scope}|{site}|{spec_index}|{invocation}"
        digest = hashlib.sha256(token.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def decide_at(
        self, site: str, scope: Any, invocation: int
    ) -> Optional[FaultAction]:
        """The pure decision function: no side effects, no counters.

        First matching spec whose window is open and whose draw lands
        under its probability wins (spec order is priority order).
        """
        for spec_index, spec in self.plan.specs_for(site):
            if not spec.active_at(invocation):
                continue
            if self._draw(scope, site, spec_index, invocation) < spec.probability:
                return FaultAction(
                    site=site,
                    kind=spec.kind,
                    spec_index=spec_index,
                    invocation=invocation,
                    latency_ms=spec.latency_ms,
                    error=spec.error,
                    payload=spec.payload,
                )
        return None

    def schedule(
        self, site: str, scope: Any = None, invocations: int = 8
    ) -> list[Optional[FaultAction]]:
        """Preview the first ``invocations`` decisions for a site/scope.

        Because :meth:`decide_at` is pure, this is exactly what a run
        would inject — the chaos runner hashes it into the reproducible
        ``schedule_digest``.
        """
        return [self.decide_at(site, scope, k) for k in range(invocations)]

    # -- execution ---------------------------------------------------------

    def fire(self, site: str) -> Optional[FaultAction]:
        """Consume one invocation of ``site`` and perform its fault, if any.

        ``latency`` sleeps here (and is accounted in
        :attr:`total_injected_ms`); ``error`` raises; mutation kinds are
        returned for the call site to interpret.  Returns ``None`` when
        nothing fires.
        """
        if not self.plan.specs_for(site):
            return None
        scope = getattr(self._scope, "token", None)
        with self._lock:
            key = (scope, site)
            invocation = self._counters.get(key, 0)
            self._counters[key] = invocation + 1
        action = self.decide_at(site, scope, invocation)
        if action is None:
            return None
        with self._lock:
            self._fires[site] = self._fires.get(site, 0) + 1
            if action.kind == "latency":
                self._injected_ms += action.latency_ms
        if action.kind == "latency":
            if action.latency_ms > 0:
                self._sleep(action.latency_ms / 1000.0)
            return action
        if action.kind == "error":
            raise action.make_error()
        return action

    # -- introspection -----------------------------------------------------

    @property
    def total_injected_ms(self) -> float:
        """Cumulative injected sleep across all threads and scopes.

        Monotone; the chaos runner brackets a request with before/after
        reads to bound how much *external* delay the request may have
        absorbed (an over-estimate under concurrency, which only loosens
        the termination bound — never a false violation).
        """
        with self._lock:
            return self._injected_ms

    def snapshot(self) -> dict:
        """JSON-friendly state dump for ``/metrics``."""
        with self._lock:
            return {
                "plan": self.plan.name,
                "plan_digest": self.plan.digest(),
                "seed": self.plan.seed,
                "specs": len(self.plan.specs),
                "fires": dict(sorted(self._fires.items())),
                "injected_latency_ms": round(self._injected_ms, 3),
            }


# -- global activation -----------------------------------------------------
#
# The injector is process-global by design: injection sites live deep in
# layers (engine, vector store, cache) that must not grow injector
# plumbing through every constructor.  `fault_point` reads one module
# global; with no plan active the whole layer is a None check.

_active: Optional[FaultInjector] = None


def fault_point(site: str) -> Optional[FaultAction]:
    """The hook hot paths call.  No-op (``None``) unless a plan is active."""
    injector = _active
    if injector is None:
        return None
    return injector.fire(site)


def activate(plan: Union[FaultPlan, FaultInjector]) -> FaultInjector:
    """Install ``plan`` (or a prebuilt injector) as the process-wide injector."""
    global _active
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    _active = injector
    return injector


def deactivate() -> None:
    """Remove the active injector; every site reverts to a no-op."""
    global _active
    _active = None


def active_injector() -> Optional[FaultInjector]:
    """The currently active injector, if any."""
    return _active


@contextmanager
def activated(plan: Union[FaultPlan, FaultInjector]) -> Iterator[FaultInjector]:
    """``with activated(plan) as injector:`` — deactivates on exit,
    restoring whatever was active before."""
    previous = _active
    injector = activate(plan)
    try:
        yield injector
    finally:
        if previous is None:
            deactivate()
        else:
            activate(previous)
