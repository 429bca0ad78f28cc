"""JSON-over-HTTP API for ChatIYP (the paper's web application).

Stdlib-only HTTP server exposing:

* ``POST /ask`` — body ``{"question": "...", "deadline_ms": 500}`` →
  answer + Cypher + provenance (``deadline_ms`` optional, capped by the
  server default)
* ``POST /ask_batch`` — body ``{"questions": [...], "deadline_ms": 500}``
  → one result per question, in order.  Each list element is either a
  bare question string or ``{"question": "...", "deadline_ms": 250}``;
  per-item budgets override the batch-level default, and every budget is
  capped by the server default.  At most
  ``max_batch_size`` questions per request.  Results report partial
  failures individually (``{"ok": false, "error": ...}``) instead of
  failing the whole batch.
* ``POST /cypher`` — body ``{"query": "...", "params": {...}}`` → rows
  (read-only queries only; writes are rejected with 403).  The query runs
  under the server's default deadline and the row budget the symbolic
  retriever gives generated Cypher
  (:func:`~repro.rag.text2cypher_retriever.derived_row_budget`); an overrun of
  either answers 400 naming the error class
* ``GET  /health`` — liveness and graph stats
* ``GET  /metrics`` — per-stage latency aggregates, routing/cache/shed
  counters from the pipeline's
  :class:`~repro.rag.observer.MetricsRegistry`, plus a ``serving`` section
  with live cache, circuit-breaker and admission-controller state
* ``GET  /schema`` — the graph schema text ChatIYP prompts with
* ``GET  /cookbook`` — the named IYP query cookbook

``POST /ask`` responses carry a ``diagnostics`` object with the routing
decision, the error-taxonomy class (when retrieval failed), per-stage
wall-clock timings recorded by the pipeline, the graceful-degradation
markers (``degraded``) and whether the answer came from the cache.

Serving hardening: every ``/ask`` passes an
:class:`~repro.serving.AdmissionController` — at most ``max_concurrency``
requests run at once, a bounded queue absorbs bursts, and everything
beyond that is shed immediately with ``503`` + ``Retry-After``.  Bodies
over 64 KiB are refused with ``413``.  Every GET and POST gets a JSON answer:
an exception no route foresaw answers ``500`` (``"internal error: <class
name>"``, counted as ``server.internal_error``) rather than closing the
connection.

``/ask_batch`` shares the same admission slots rather than bypassing
them: a batch blocks for exactly **one** slot like any ``/ask`` (shedding
with ``503`` when none arrives) and answers its questions serially in
that slot.  Total concurrent question executions across ``/ask`` and
``/ask_batch`` therefore never exceed ``max_concurrency``.

Start programmatically via :func:`make_server` (tests bind port 0), or from
a shell::

    python -m repro.server --port 8080 --size small
"""

from __future__ import annotations

import json
import logging
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator, Optional

from ..core.chatiyp import ChatIYP
from ..cypher import CypherError, CypherSyntaxError, render_value
from ..iyp.queries import COOKBOOK
from ..rag.text2cypher_retriever import derived_row_budget
from ..serving import AdmissionController, Deadline

__all__ = ["make_server", "ChatIYPRequestHandler", "serve"]

_MAX_BODY = 64 * 1024

logger = logging.getLogger(__name__)


class _ChatIYPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer tuned for bursty clients, holding the settings
    every request reads.

    The stdlib default listen backlog (5) drops connections under
    concurrent load before admission control can shed them politely;
    a deeper backlog lets the controller answer 503 + Retry-After
    instead of resetting the TCP connection.
    """

    request_queue_size = 128
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        chatiyp: ChatIYP,
        *,
        deadline_ms: Optional[float],
        max_batch_size: int,
        admission: Optional[AdmissionController],
        verbose: bool,
    ) -> None:
        super().__init__(address, ChatIYPRequestHandler)
        self.chatiyp = chatiyp
        self.deadline_ms = deadline_ms
        self.max_batch_size = max_batch_size
        self.admission = admission
        self.verbose = verbose
        #: exceptions that escaped a handler: each closed a connection
        #: without a reply
        self.escaped_errors = 0
        self._escaped_lock = threading.Lock()

    def handle_error(self, request, client_address) -> None:
        with self._escaped_lock:
            self.escaped_errors += 1
        super().handle_error(request, client_address)


class _Reply(Exception):
    """A request's answer other than 200: its status and error text."""

    def __init__(self, status: int, error: str, headers: Optional[dict] = None) -> None:
        super().__init__(error)
        self.status = status
        self.error = error
        self.headers = headers or {}


def _bad_budget(value) -> bool:
    """True when ``value`` is not a usable ``deadline_ms`` (None is ok).

    JSON ``NaN`` and ``Infinity`` parse to floats and an integer may
    exceed the float range; none of these is a budget.
    """
    return value is not None and (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not 0 < value <= sys.float_info.max
    )


class ChatIYPRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to the ChatIYP instance attached to the server.

    Every request takes one path: :meth:`_respond` looks the route up,
    POST routes decode their body in :meth:`_read_body` (``/ask`` and
    ``/ask_batch`` inside an admission slot, :meth:`_admitted`), and
    whatever the route returns or raises becomes one JSON response.
    """

    server_version = "ChatIYP/1.0"
    server: _ChatIYPServer

    @property
    def chatiyp(self) -> ChatIYP:
        return self.server.chatiyp

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    # -- the request path -------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        self._respond(self._GET_ROUTES.get(self.path))

    def do_POST(self) -> None:  # noqa: N802
        self._respond(self._POST_ROUTES.get(self.path))

    def _respond(self, route) -> None:
        """Run ``route`` and write what it returns, or what it raised, as
        one JSON response: the only place a request becomes a status."""
        status, headers = 200, {}
        try:
            if route is None:
                raise _Reply(404, "not found")
            body = json.dumps(route(self))
        except Exception as exc:  # noqa: BLE001 - every request gets an answer
            status, headers, error = self._failure(exc)
            body = json.dumps({"error": error})
        encoded = body.encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        for name, value in headers.items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(encoded)

    def _failure(self, exc: Exception) -> tuple[int, dict, str]:
        """The status, headers and error text ``exc`` answers with; an
        exception no route foresaw is logged with its traceback."""
        if isinstance(exc, _Reply):
            return exc.status, exc.headers, exc.error
        if isinstance(exc, CypherSyntaxError):
            return 400, {}, f"syntax error: {exc}"
        if isinstance(exc, CypherError):
            return 400, {}, f"query failed: {type(exc).__name__}: {exc}"
        logger.exception("%s %s: internal error", self.command, self.path)
        self.chatiyp.metrics.increment("server.internal_error")
        return 500, {}, f"internal error: {type(exc).__name__}"

    @contextmanager
    def _admitted(self) -> Iterator[None]:
        """Hold an admission slot, or shed with 503 + Retry-After.

        The slot goes back when the route returns or raises, before
        :meth:`_respond` writes the response: a client acting on the reply
        at once (the tests poll the admission snapshot) never sees it held.
        """
        admission = self.server.admission
        if admission is None:
            yield
            return
        with admission.slot() as admitted:
            if not admitted:
                self.chatiyp.metrics.increment("server.shed")
                raise _Reply(
                    503, "server overloaded; retry later",
                    {"Retry-After": max(1, round(admission.retry_after_s))},
                )
            yield

    def _read_body(self) -> dict:
        """The request body, which must be a JSON object of at most 64 KiB."""
        header = self.headers.get("Content-Length", "")
        length = int(header) if header.isdecimal() else 0
        if length > _MAX_BODY:
            raise _Reply(413, f"request body exceeds {_MAX_BODY} bytes")
        if length <= 0:
            raise _Reply(400, "bad request body")
        try:
            payload = json.loads(self.rfile.read(length))
        # not UTF-8 (UnicodeDecodeError is a ValueError) or nested past
        # the decoder's recursion limit
        except (ValueError, RecursionError):
            raise _Reply(400, "body must be valid JSON") from None
        if not isinstance(payload, dict):
            raise _Reply(400, "body must be a JSON object")
        return payload

    def _parse_question(self, item, default_budget):
        """Normalize one question (an ``/ask`` body or an ``/ask_batch``
        element) to ``(question, budget, error)``; the budget is capped at
        the server default."""
        if isinstance(item, str):
            question, budget = item, default_budget
        elif isinstance(item, dict):
            question = item.get("question")
            budget = item.get("deadline_ms", default_budget)
        else:
            return None, None, "item must be a string or an object"
        if not isinstance(question, str) or not question.strip():
            return None, None, "'question' must be a non-empty string"
        if _bad_budget(budget):
            return None, None, "'deadline_ms' must be a positive number"
        cap = self.server.deadline_ms
        if budget is None or cap is not None and budget > cap:
            budget = cap
        return question, budget, None

    # -- routes -----------------------------------------------------------

    def _health(self) -> dict:
        store = self.chatiyp.store
        return {
            "status": "ok",
            "model": self.chatiyp.llm.model_name,
            "nodes": store.node_count,
            "relationships": store.relationship_count,
        }

    def _metrics(self) -> dict:
        payload = self.chatiyp.metrics.snapshot()
        admission = self.server.admission
        payload["serving"] = {
            **self.chatiyp.serving_snapshot(),
            "admission": admission.snapshot() if admission is not None else None,
        }
        return payload

    def _schema(self) -> dict:
        return {"schema": self.chatiyp.schema}

    def _cookbook(self) -> dict:
        return {
            "queries": [
                {
                    "name": query.name,
                    "description": query.description,
                    "parameters": list(query.parameters),
                    "cypher": query.cypher,
                }
                for query in COOKBOOK.values()
            ]
        }

    def _ask(self) -> dict:
        with self._admitted():
            question, budget, error = self._parse_question(self._read_body(), None)
            if error is not None:
                raise _Reply(400, error)
            return self.chatiyp.ask(question, deadline_ms=budget).to_dict()

    def _ask_batch(self) -> dict:
        # A batch is admitted like a single /ask: one slot (shed with 503
        # when none arrives), its questions answered serially in it.
        with self._admitted():
            payload = self._read_body()
            items = payload.get("questions")
            if not isinstance(items, list) or not items:
                raise _Reply(400, "'questions' must be a non-empty list")
            if len(items) > self.server.max_batch_size:
                raise _Reply(400, f"batch exceeds {self.server.max_batch_size} questions")
            default_budget = payload.get("deadline_ms")
            if _bad_budget(default_budget):
                raise _Reply(400, "'deadline_ms' must be a positive number")
            parsed = [self._parse_question(item, default_budget) for item in items]
            runnable = [
                (index, question, budget)
                for index, (question, budget, error) in enumerate(parsed)
                if error is None
            ]
            outcomes = (
                self.chatiyp.ask_batch(
                    [question for _, question, _ in runnable],
                    deadline_ms=[budget for _, _, budget in runnable],
                )
                if runnable
                else []
            )
        results: list[dict] = [{"ok": False, "error": error} for _, _, error in parsed]
        for (index, _, _), outcome in zip(runnable, outcomes):
            if outcome.ok:
                results[index] = {"ok": True, "response": outcome.value.to_dict()}
            else:
                results[index] = {"ok": False, "error": str(outcome.error)}
        return {"results": results, "count": len(results)}

    def _cypher(self) -> dict:
        payload = self._read_body()
        query = payload.get("query")
        params = payload.get("params")
        if not isinstance(query, str) or not query.strip():
            raise _Reply(400, "'query' must be a non-empty string")
        if params is not None and not isinstance(params, dict):
            raise _Reply(400, "'params' must be an object")
        engine = self.chatiyp.engine
        if not engine.is_read_only(query):
            raise _Reply(403, "write queries are not allowed over the API")
        deadline_ms = self.server.deadline_ms
        result = engine.execute(
            query,
            params,
            deadline=Deadline.start(deadline_ms) if deadline_ms else None,
            row_budget=derived_row_budget(engine.store),
        )
        rows = [
            {key: render_value(value) for key, value in record.to_dict().items()}
            for record in result.records[:200]
        ]
        return {"keys": result.keys, "rows": rows, "row_count": len(result)}

    _GET_ROUTES = {
        "/health": _health, "/metrics": _metrics, "/schema": _schema, "/cookbook": _cookbook,
    }
    _POST_ROUTES = {"/ask": _ask, "/ask_batch": _ask_batch, "/cypher": _cypher}


def make_server(
    chatiyp: ChatIYP,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    *,
    max_concurrency: int = 8,
    max_queue_depth: int = 16,
    queue_timeout_s: float = 1.0,
    retry_after_s: float = 1.0,
    deadline_ms: Optional[float] = None,
    max_batch_size: int = 16,
) -> ThreadingHTTPServer:
    """Create (but do not start) the HTTP server bound to ``host:port``.

    ``max_concurrency``/``max_queue_depth``/``queue_timeout_s`` configure
    the admission controller on ``/ask`` and ``/ask_batch``
    (``max_concurrency=0`` disables admission control entirely); shed
    requests answer ``503`` with a ``Retry-After: retry_after_s`` header.
    ``deadline_ms`` is the default per-request budget applied when the
    client sends none, the cap on any budget a client sends, and the
    deadline of every ``/cypher`` query; ``max_batch_size`` caps the
    questions one ``/ask_batch`` request may carry.
    """
    admission = (
        AdmissionController(
            max_concurrency=max_concurrency,
            max_queue_depth=max_queue_depth,
            queue_timeout_s=queue_timeout_s,
            retry_after_s=retry_after_s,
        )
        if max_concurrency > 0
        else None
    )
    return _ChatIYPServer(
        (host, port), chatiyp, deadline_ms=deadline_ms, max_batch_size=max_batch_size,
        admission=admission, verbose=verbose,
    )


def serve(
    chatiyp: ChatIYP, host: str = "127.0.0.1", port: int = 8080, **hardening
) -> None:
    """Run the server until interrupted (``hardening`` → :func:`make_server`)."""
    server = make_server(chatiyp, host, port, verbose=True, **hardening)
    print(f"ChatIYP listening on http://{host}:{server.server_address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()


def start_background(
    chatiyp: ChatIYP, host: str = "127.0.0.1", **hardening
) -> tuple[ThreadingHTTPServer, int]:
    """Start on an ephemeral port in a daemon thread; returns (server, port)."""
    server = make_server(chatiyp, host, 0, **hardening)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, server.server_address[1]
