"""Serving-hardening tests for the HTTP layer.

Covers the error paths the API contract promises (413 oversized body,
400 malformed JSON / bad deadline, 403 write query), the admission
controller's 503 + ``Retry-After`` shedding, the ``/metrics`` serving
section, and the headline 32-thread stress test: concurrent ``/ask``
traffic with a deadline configured must produce no exceptions, no
lost or duplicated metrics, cache hits on repeated questions, and
well-formed shed responses.
"""

from __future__ import annotations

import concurrent.futures
import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.core import ChatIYP, ChatIYPConfig
from repro.faults import FaultPlan, FaultSpec, activated
from repro.rag.types import RetrievalResult
from repro.server import start_background


def _get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
        return resp.status, json.loads(resp.read()), dict(resp.headers)


def _post(port, path, payload=None, raw=None, timeout=30):
    body = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


@pytest.fixture(scope="module")
def hardened_bot(small_dataset):
    return ChatIYP(
        dataset=small_dataset,
        config=ChatIYPConfig(
            dataset_size="small",
            answer_cache_size=128,
            breaker_failure_threshold=4,
        ),
    )


class TestClientBudgetCap:
    """A client's ``deadline_ms`` never exceeds the server default."""

    @pytest.fixture(scope="class")
    def capped_port(self, small_dataset):
        bot = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(dataset_size="small", answer_cache_size=0),
        )
        server, port = start_background(bot, deadline_ms=100.0)
        yield port
        server.shutdown()
        assert server.escaped_errors == 0

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/ask", {"question": "Which country is AS2497 registered in?", "deadline_ms": 1e9}),
            ("/ask_batch", {"questions": ["Which country is AS2497 registered in?"],
                            "deadline_ms": 1e9}),
            ("/ask_batch", {"questions": [{"question": "Which country is AS2497 registered in?",
                                           "deadline_ms": 1e9}]}),
        ],
        ids=["ask", "batch-default", "batch-item"],
    )
    def test_huge_client_budget_is_capped(self, capped_port, path, body):
        # The translation sleeps past the 100 ms server default but far
        # inside the client's budget: only the capped budget degrades.
        plan = FaultPlan(
            specs=(FaultSpec(site="llm.text2cypher", kind="latency", latency_ms=300.0),),
        )
        with activated(plan):
            status, payload, _ = _post(capped_port, path, body)
        assert status == 200
        response = payload if path == "/ask" else payload["results"][0]["response"]
        assert response["diagnostics"]["degraded"]

    def test_smaller_client_budget_is_kept(self, capped_port):
        plan = FaultPlan(
            specs=(FaultSpec(site="llm.text2cypher", kind="latency", latency_ms=30.0),),
        )
        body = {"question": "Which country is AS2497 registered in?", "deadline_ms": 10.0}
        with activated(plan):
            status, payload, _ = _post(capped_port, "/ask", body)
        assert status == 200
        assert payload["diagnostics"]["degraded"]


@pytest.fixture(scope="module")
def hardened_port(hardened_bot):
    server, port = start_background(
        hardened_bot,
        max_concurrency=8,
        max_queue_depth=8,
        queue_timeout_s=30.0,
        retry_after_s=2.0,
        deadline_ms=30_000.0,
    )
    yield port
    server.shutdown()
    assert server.escaped_errors == 0


class TestErrorPaths:
    def test_oversized_body_is_413(self, hardened_port):
        huge = json.dumps({"question": "x" * (70 * 1024)}).encode()
        status, payload, _ = _post(hardened_port, "/ask", raw=huge)
        assert status == 413
        assert "error" in payload

    def test_malformed_json_is_400(self, hardened_port):
        status, payload, _ = _post(hardened_port, "/ask", raw=b"{nope")
        assert status == 400
        assert "error" in payload

    def test_non_object_json_is_400(self, hardened_port):
        status, _, _ = _post(hardened_port, "/ask", raw=b'["a", "b"]')
        assert status == 400

    @pytest.mark.parametrize("path", ["/ask", "/cypher"])
    @pytest.mark.parametrize("length", ["abc", "1e3", "+5", "-1", ""])
    def test_malformed_content_length_is_400(self, hardened_port, path, length):
        # urllib always sends a well-formed length, so write the request
        # by hand and read whatever comes back before the server closes.
        with socket.create_connection(("127.0.0.1", hardened_port), timeout=10) as sock:
            sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Length: {length}\r\nConnection: close\r\n\r\n".encode()
            )
            reply = sock.makefile("rb").read()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400"
        assert json.loads(body) == {"error": "bad request body"}

    @pytest.mark.parametrize("path", ["/ask", "/ask_batch", "/cypher"])
    @pytest.mark.parametrize("raw", [
        b'{"question": "\xff\xfe"}',
        b"\xff\xfe\xfd",
        b"[" * 5000,
        b'{"question": ' + b"[" * 5000 + b"]" * 5000 + b"}",
    ], ids=["not_utf8", "not_utf8_or_utf16", "deep_unclosed", "deep_closed"])
    def test_undecodable_body_is_400(self, hardened_port, path, raw):
        status, payload, _ = _post(hardened_port, path, raw=raw)
        assert status == 400
        assert payload == {"error": "body must be valid JSON"}

    def test_write_cypher_is_403(self, hardened_port):
        status, payload, _ = _post(
            hardened_port, "/cypher", {"query": "CREATE (n:AS {asn: 1}) RETURN n"}
        )
        assert status == 403
        assert "not allowed" in payload["error"]

    def test_bad_deadline_is_400(self, hardened_port):
        for bad in (-5, 0, "fast", True, float("nan"), 10**400):
            status, payload, _ = _post(
                hardened_port, "/ask", {"question": "Who is AS2497?", "deadline_ms": bad}
            )
            assert status == 400, bad
            assert "deadline_ms" in payload["error"]


class TestUnforeseenError:
    def test_plain_runtime_error_is_500(self, hardened_port, hardened_bot, monkeypatch):
        def broken_ask(question, **kwargs):
            raise RuntimeError("no route foresaw this")

        monkeypatch.setattr(hardened_bot, "ask", broken_ask)
        before = hardened_bot.metrics.snapshot()["counters"].get("server.internal_error", 0)
        status, payload, headers = _post(hardened_port, "/ask", {"question": "Who is AS2497?"})
        assert status == 500
        assert headers["Content-Type"] == "application/json"
        assert payload == {"error": "internal error: RuntimeError"}
        _, metrics, _ = _get(hardened_port, "/metrics")
        assert metrics["serving"]["admission"]["active"] == 0
        assert metrics["counters"]["server.internal_error"] == before + 1


class TestMetricsServingSection:
    def test_serving_state_is_exposed(self, hardened_port):
        _post(hardened_port, "/ask", {"question": "Which country is AS2497 registered in?"})
        status, payload, _ = _get(hardened_port, "/metrics")
        assert status == 200
        serving = payload["serving"]
        assert serving["cache"]["capacity"] == 128
        assert serving["breaker"]["state"] in ("closed", "open", "half_open")
        assert serving["admission"]["max_concurrency"] == 8
        assert serving["admission"]["accepted"] >= 1

    def test_ask_response_carries_hardening_diagnostics(self, hardened_port):
        question = "Which country is AS15169 registered in?"
        _post(hardened_port, "/ask", {"question": question})
        status, payload, _ = _post(hardened_port, "/ask", {"question": question})
        assert status == 200
        assert payload["diagnostics"]["cache_hit"] is True
        assert payload["diagnostics"]["degraded"] == []


class TestLoadShedding:
    def test_overload_sheds_503_with_retry_after(self, small_dataset):
        bot = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(dataset_size="small", answer_cache_size=0),
        )
        server, port = start_background(
            bot,
            max_concurrency=1,
            max_queue_depth=0,
            queue_timeout_s=0.0,
            retry_after_s=3.0,
        )
        try:
            def ask(i):
                return _post(
                    port, "/ask",
                    {"question": f"Which country is AS{2497 + i} registered in?"},
                )

            with concurrent.futures.ThreadPoolExecutor(max_workers=12) as pool:
                outcomes = list(pool.map(ask, range(12)))
        finally:
            server.shutdown()
        statuses = [status for status, _, _ in outcomes]
        assert set(statuses) <= {200, 503}
        shed = [(p, h) for status, p, h in outcomes if status == 503]
        assert shed, "expected at least one shed request under 1-slot concurrency"
        for payload, headers in shed:
            assert headers.get("Retry-After") == "3"
            assert "overloaded" in payload["error"]
        counters = bot.metrics.snapshot()["counters"]
        assert counters.get("server.shed", 0) == len(shed)


class TestConcurrentStress:
    """The acceptance stress test: 32 threads, deadline configured."""

    QUESTIONS = [
        "Which country is AS2497 registered in?",
        "Which country is AS15169 registered in?",
        "How many prefixes does AS2497 originate?",
        "What organization manages AS13335?",
    ]

    def test_32_thread_ask_stress(self, small_dataset):
        bot = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(
                dataset_size="small",
                answer_cache_size=64,
                breaker_failure_threshold=4,
            ),
        )
        server, port = start_background(
            bot,
            max_concurrency=4,
            max_queue_depth=8,
            queue_timeout_s=0.25,
            retry_after_s=1.0,
            deadline_ms=30_000.0,
        )
        requests_per_thread = 4
        exceptions = []
        outcomes = []

        def worker(tid):
            for i in range(requests_per_thread):
                question = self.QUESTIONS[(tid + i) % len(self.QUESTIONS)]
                try:
                    outcomes.append(_post(port, "/ask", {"question": question}))
                except Exception as exc:  # pragma: no cover - the assertion target
                    exceptions.append(exc)

        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=32) as pool:
                list(pool.map(worker, range(32)))
        finally:
            server.shutdown()

        assert not exceptions, exceptions
        assert len(outcomes) == 32 * requests_per_thread
        ok = [payload for status, payload, _ in outcomes if status == 200]
        shed = [(payload, headers) for status, payload, headers in outcomes
                if status == 503]
        assert len(ok) + len(shed) == len(outcomes)
        assert ok, "no request survived admission control"

        # Shed responses are well-formed 503s with Retry-After.
        for payload, headers in shed:
            assert "Retry-After" in headers
            assert int(headers["Retry-After"]) >= 1

        # Same question -> same answer, regardless of interleaving/caching.
        by_question = {}
        for payload in ok:
            by_question.setdefault(payload["question"], set()).add(payload["answer"])
        assert all(len(answers) == 1 for answers in by_question.values())

        counters = bot.metrics.snapshot()["counters"]
        cache_stats = bot.answer_cache.stats()
        # Cache hit-rate > 0 on repeated questions.
        assert counters.get("cache.hit", 0) > 0
        assert cache_stats["hit_rate"] > 0.0
        # No lost or duplicated metrics: every 200 is exactly one pipeline
        # ask (counted once), every 503 is exactly one shed, and every ask
        # was either a cache hit or a cache miss.
        assert counters["ask.requests"] == len(ok)
        assert counters.get("server.shed", 0) == len(shed)
        assert (
            counters.get("cache.hit", 0) + counters.get("cache.miss", 0)
            == counters["ask.requests"]
        )
        # Stage calls line up with cache misses (each miss ran the full
        # pipeline exactly once; hits skipped it, and misses coalesced onto
        # a concurrent identical in-flight request rode its execution).
        stages = bot.metrics.snapshot()["stages"]
        assert stages["synthesis"]["calls"] == (
            counters["cache.miss"] - counters.get("singleflight.coalesced", 0)
        )


class TestBreakerOverHttp:
    def test_tripped_breaker_reroutes_to_vector(self, small_dataset, monkeypatch):
        bot = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(
                dataset_size="small",
                answer_cache_size=0,
                breaker_failure_threshold=2,
            ),
        )
        retriever = bot.pipeline.text2cypher

        def failing_retrieve(question, deadline=None):
            return RetrievalResult(
                source="text2cypher",
                cypher="MATCH (broken",
                error="CypherRuntimeError: engine exploded",
            )

        monkeypatch.setattr(retriever, "retrieve", failing_retrieve)
        server, port = start_background(bot)
        try:
            statuses = []
            for asn in (2497, 15169, 13335):
                status, payload, _ = _post(
                    port, "/ask",
                    {"question": f"Which country is AS{asn} registered in?"},
                )
                statuses.append(status)
            assert statuses == [200, 200, 200]
            # Third request hit the open breaker: rerouted to vector-only.
            assert "symbolic_skipped_breaker_open" in payload["diagnostics"]["degraded"]
            assert payload["retrieval_source"] == "vector"
            _, metrics, _ = _get(port, "/metrics")
        finally:
            server.shutdown()
        assert metrics["serving"]["breaker"]["state"] == "open"
        assert metrics["counters"].get("breaker.open", 0) >= 1
        assert metrics["counters"].get("degraded.symbolic_skipped_breaker_open", 0) >= 1
