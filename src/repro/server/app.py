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
over 64 KiB are refused with ``413``.

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
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..core.chatiyp import ChatIYP
from ..cypher import CypherError, CypherSyntaxError, render_value
from ..iyp.queries import COOKBOOK
from ..rag.text2cypher_retriever import derived_row_budget
from ..serving import AdmissionController, Deadline

__all__ = ["make_server", "ChatIYPRequestHandler", "serve"]

_MAX_BODY = 64 * 1024


class _ChatIYPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer tuned for bursty clients.

    The stdlib default listen backlog (5) drops connections under
    concurrent load before admission control can shed them politely;
    a deeper backlog lets the controller answer 503 + Retry-After
    instead of resetting the TCP connection.
    """

    request_queue_size = 128
    daemon_threads = True


class ChatIYPRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to the ChatIYP instance attached to the server."""

    server_version = "ChatIYP/1.0"

    @property
    def chatiyp(self) -> ChatIYP:
        return self.server.chatiyp  # type: ignore[attr-defined]

    # -- helpers ----------------------------------------------------------

    def _send_json(
        self, payload: dict, status: int = 200, headers: Optional[dict] = None
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _metrics_increment(self, counter: str) -> None:
        metrics = getattr(self.chatiyp, "metrics", None)
        if metrics is not None:
            metrics.increment(counter)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # type: ignore[attr-defined]
            super().log_message(format, *args)

    # -- routes -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/health":
            store = self.chatiyp.store
            self._send_json(
                {
                    "status": "ok",
                    "model": self.chatiyp.llm.model_name,
                    "nodes": store.node_count,
                    "relationships": store.relationship_count,
                }
            )
            return
        if self.path == "/metrics":
            metrics = getattr(self.chatiyp, "metrics", None)
            payload = (
                metrics.snapshot()
                if metrics is not None
                else {"stages": {}, "counters": {}}
            )
            serving = {}
            snapshot = getattr(self.chatiyp, "serving_snapshot", None)
            if callable(snapshot):
                serving.update(snapshot())
            admission = getattr(self.server, "admission", None)
            serving["admission"] = (
                admission.snapshot() if admission is not None else None
            )
            payload["serving"] = serving
            self._send_json(payload)
            return
        if self.path == "/schema":
            self._send_json({"schema": self.chatiyp.schema})
            return
        if self.path == "/cookbook":
            self._send_json(
                {
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
            )
            return
        self._send_json({"error": "not found"}, status=404)

    def _read_json_body(self) -> dict | None:
        header = self.headers.get("Content-Length", "")
        length = int(header) if header.isdecimal() else 0
        if length > _MAX_BODY:
            self._send_json(
                {"error": f"request body exceeds {_MAX_BODY} bytes"}, status=413
            )
            return None
        if length <= 0:
            self._send_json({"error": "bad request body"}, status=400)
            return None
        try:
            payload = json.loads(self.rfile.read(length))
        except json.JSONDecodeError:
            self._send_json({"error": "body must be valid JSON"}, status=400)
            return None
        if not isinstance(payload, dict):
            self._send_json({"error": "body must be a JSON object"}, status=400)
            return None
        return payload

    def do_POST(self) -> None:  # noqa: N802
        if self.path == "/ask":
            self._handle_ask()
            return
        if self.path == "/ask_batch":
            self._handle_ask_batch()
            return
        if self.path == "/cypher":
            self._handle_cypher()
            return
        self._send_json({"error": "not found"}, status=404)

    def _shed(self, retry_after_s: float) -> None:
        """Refuse the request with 503 + Retry-After (load shedding)."""
        self._metrics_increment("server.shed")
        self._send_json(
            {"error": "server overloaded; retry later"},
            status=503,
            headers={"Retry-After": max(1, round(retry_after_s))},
        )

    def _handle_ask(self) -> None:
        admission: Optional[AdmissionController] = getattr(
            self.server, "admission", None
        )
        if admission is not None and not admission.acquire():
            self._shed(admission.retry_after_s)
            return
        try:
            payload = self._read_json_body()
            if payload is None:
                return
            question = payload.get("question")
            if not isinstance(question, str) or not question.strip():
                self._send_json(
                    {"error": "'question' must be a non-empty string"}, status=400
                )
                return
            deadline_ms = payload.get("deadline_ms")
            if self._bad_budget(deadline_ms):
                self._send_json(
                    {"error": "'deadline_ms' must be a positive number"}, status=400
                )
                return
            body = self.chatiyp.ask(
                question, deadline_ms=self._capped(deadline_ms)
            ).to_dict()
        finally:
            # Slot goes back before the success response is written: a
            # client acting on the reply immediately (the tests poll the
            # admission snapshot) must never observe it still held.
            if admission is not None:
                admission.release()
        self._send_json(body)

    @staticmethod
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

    def _capped(self, budget):
        """A client budget capped at the server default (None = not set)."""
        default = getattr(self.server, "deadline_ms", None)
        if budget is None:
            return default
        return budget if default is None else min(budget, default)

    def _parse_batch_item(self, item, default_budget):
        """Normalize one batch element to ``(question, budget, error)``."""
        if isinstance(item, str):
            question, budget = item, default_budget
        elif isinstance(item, dict):
            question = item.get("question")
            budget = item.get("deadline_ms", default_budget)
        else:
            return None, None, "item must be a string or an object"
        if not isinstance(question, str) or not question.strip():
            return None, None, "'question' must be a non-empty string"
        if self._bad_budget(budget):
            return None, None, "'deadline_ms' must be a positive number"
        return question, self._capped(budget), None

    def _handle_ask_batch(self) -> None:
        admission: Optional[AdmissionController] = getattr(
            self.server, "admission", None
        )
        # A batch is admitted like a single /ask: block for one slot (shed
        # with 503 when none arrives) and answer its questions serially.
        if admission is not None and not admission.acquire():
            self._shed(admission.retry_after_s)
            return
        try:
            payload = self._read_json_body()
            if payload is None:
                return
            items = payload.get("questions")
            if not isinstance(items, list) or not items:
                self._send_json(
                    {"error": "'questions' must be a non-empty list"}, status=400
                )
                return
            max_batch = getattr(self.server, "max_batch_size", 16)
            if len(items) > max_batch:
                self._send_json(
                    {"error": f"batch exceeds {max_batch} questions"}, status=400
                )
                return
            default_budget = payload.get("deadline_ms")
            if self._bad_budget(default_budget):
                self._send_json(
                    {"error": "'deadline_ms' must be a positive number"}, status=400
                )
                return
            parsed = [self._parse_batch_item(item, default_budget) for item in items]
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
            results: list[dict] = [
                {"ok": False, "error": error} for _, _, error in parsed
            ]
            for (index, _, _), outcome in zip(runnable, outcomes):
                if outcome.ok:
                    results[index] = {"ok": True, "response": outcome.value.to_dict()}
                else:
                    results[index] = {"ok": False, "error": str(outcome.error)}
            body = {"results": results, "count": len(results)}
        finally:
            # As in _handle_ask: return the slot before the response goes
            # out, so the client never races the handler for it.
            if admission is not None:
                admission.release()
        self._send_json(body)

    def _handle_cypher(self) -> None:
        payload = self._read_json_body()
        if payload is None:
            return
        query = payload.get("query")
        params = payload.get("params")
        if not isinstance(query, str) or not query.strip():
            self._send_json({"error": "'query' must be a non-empty string"}, status=400)
            return
        if params is not None and not isinstance(params, dict):
            self._send_json({"error": "'params' must be an object"}, status=400)
            return
        engine = self.chatiyp.engine
        try:
            if not engine.is_read_only(query):
                self._send_json(
                    {"error": "write queries are not allowed over the API"}, status=403
                )
                return
            deadline_ms = getattr(self.server, "deadline_ms", None)
            result = engine.execute(
                query,
                params,
                deadline=Deadline.start(deadline_ms) if deadline_ms else None,
                row_budget=derived_row_budget(engine.store),
            )
        except CypherSyntaxError as exc:
            self._send_json({"error": f"syntax error: {exc}"}, status=400)
            return
        except CypherError as exc:
            self._send_json({"error": f"query failed: {type(exc).__name__}: {exc}"}, status=400)
            return
        rows = [
            {key: render_value(value) for key, value in record.to_dict().items()}
            for record in result.records[:200]
        ]
        self._send_json({"keys": result.keys, "rows": rows, "row_count": len(result)})


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
    server = _ChatIYPServer((host, port), ChatIYPRequestHandler)
    server.chatiyp = chatiyp  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.deadline_ms = deadline_ms  # type: ignore[attr-defined]
    server.max_batch_size = max_batch_size  # type: ignore[attr-defined]
    server.admission = (  # type: ignore[attr-defined]
        AdmissionController(
            max_concurrency=max_concurrency,
            max_queue_depth=max_queue_depth,
            queue_timeout_s=queue_timeout_s,
            retry_after_s=retry_after_s,
        )
        if max_concurrency > 0
        else None
    )
    return server


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
