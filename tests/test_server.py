"""Tests for the HTTP API and CLI chat loop."""

import io
import json
import urllib.error
import urllib.request

import pytest

from repro.server import chat_loop, start_background


@pytest.fixture(scope="module")
def server_port(chatiyp_small):
    server, port = start_background(chatiyp_small)
    yield port
    server.shutdown()
    assert server.escaped_errors == 0


def _get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _post(port, path, payload, raw=None):
    body = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHttpApi:
    def test_health(self, server_port):
        status, payload = _get(server_port, "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["nodes"] > 0

    def test_schema(self, server_port):
        status, payload = _get(server_port, "/schema")
        assert status == 200
        assert "(:AS" in payload["schema"]

    def test_ask_success(self, server_port):
        status, payload = _post(
            server_port, "/ask",
            {"question": "What is the percentage of Japan's population in AS2497?"},
        )
        assert status == 200
        assert payload["question"]
        assert payload["answer"]
        assert "cypher" in payload
        assert payload["retrieval_source"] in ("text2cypher", "vector")

    def test_ask_missing_question(self, server_port):
        status, payload = _post(server_port, "/ask", {"nope": 1})
        assert status == 400
        assert "error" in payload

    def test_ask_empty_question(self, server_port):
        status, payload = _post(server_port, "/ask", {"question": "   "})
        assert status == 400

    def test_ask_invalid_json(self, server_port):
        status, payload = _post(server_port, "/ask", None, raw=b"{broken")
        assert status == 400

    def test_unknown_get_route(self, server_port):
        try:
            _get(server_port, "/nope")
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as error:
            assert error.code == 404

    def test_unknown_post_route(self, server_port):
        status, _ = _post(server_port, "/nope", {"question": "x"})
        assert status == 404

    def test_ask_exposes_stage_timings(self, server_port):
        status, payload = _post(
            server_port, "/ask", {"question": "Which country is AS2497 registered in?"}
        )
        assert status == 200
        timings = payload["diagnostics"]["stage_timings"]
        assert {"symbolic", "routing", "rerank", "synthesis"} <= set(timings)
        assert payload["diagnostics"]["route"] == "symbolic-first"

    def test_metrics_endpoint(self, server_port):
        # At least one /ask ran earlier in the module: aggregates are live.
        _post(server_port, "/ask", {"question": "Which country is AS2497 registered in?"})
        status, payload = _get(server_port, "/metrics")
        assert status == 200
        assert payload["stages"]["synthesis"]["calls"] >= 1
        assert payload["stages"]["symbolic"]["mean_ms"] >= 0.0


class TestConcurrency:
    def test_parallel_asks(self, server_port):
        """The threaded server must answer overlapping requests correctly."""
        import concurrent.futures

        questions = [
            "Which country is AS2497 registered in?",
            "Which country is AS15169 registered in?",
            "How many prefixes does AS2497 originate?",
            "What organization manages AS13335?",
        ] * 3

        def ask(question):
            return _post(server_port, "/ask", {"question": question})

        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(pool.map(ask, questions))
        assert all(status == 200 for status, _ in outcomes)
        # Same question -> same answer, regardless of interleaving.
        by_question = {}
        for (status, payload), question in zip(outcomes, questions):
            by_question.setdefault(question, set()).add(payload["answer"])
        assert all(len(answers) == 1 for answers in by_question.values())


class TestCliChatLoop:
    def test_answers_questions(self, chatiyp_small):
        out = io.StringIO()
        answered = chat_loop(
            chatiyp_small,
            ["Which country is AS2497 registered in?", ":quit", "never reached"],
            out=out,
        )
        assert answered == 1
        assert "Q:" in out.getvalue()

    def test_schema_command(self, chatiyp_small):
        out = io.StringIO()
        chat_loop(chatiyp_small, [":schema", ":quit"], out=out)
        assert "(:AS" in out.getvalue()

    def test_blank_lines_skipped(self, chatiyp_small):
        out = io.StringIO()
        answered = chat_loop(chatiyp_small, ["", "   ", ":quit"], out=out)
        assert answered == 0
