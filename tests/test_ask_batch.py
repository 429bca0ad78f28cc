"""POST /ask_batch and ChatIYP.ask_batch: schema, partial failure, deadlines,
admission sharing, and the serial execution contract."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import ChatIYP, ChatIYPConfig
from repro.serving import Deadline
from repro.server import start_background


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
def batch_bot(small_dataset):
    return ChatIYP(
        dataset=small_dataset,
        config=ChatIYPConfig(dataset_size="small", answer_cache_size=128),
    )


@pytest.fixture(scope="module")
def batch_server(batch_bot):
    server, port = start_background(
        batch_bot,
        max_concurrency=4,
        max_queue_depth=4,
        queue_timeout_s=30.0,
        max_batch_size=6,
    )
    yield server, port
    server.shutdown()
    assert server.escaped_errors == 0


class TestAskBatchSchema:
    def test_mixed_strings_and_objects_in_order(self, batch_server):
        _, port = batch_server
        status, payload, _ = _post(
            port,
            "/ask_batch",
            {
                "questions": [
                    "Which country is AS2497 registered in?",
                    {"question": "How many prefixes does AS2497 originate?"},
                ]
            },
        )
        assert status == 200
        assert payload["count"] == 2
        assert [item["ok"] for item in payload["results"]] == [True, True]
        first = payload["results"][0]["response"]
        assert first["question"] == "Which country is AS2497 registered in?"
        assert first["answer"]
        assert "diagnostics" in first

    def test_partial_failure_keeps_positions(self, batch_server):
        _, port = batch_server
        status, payload, _ = _post(
            port,
            "/ask_batch",
            {
                "questions": [
                    "Which country is AS2497 registered in?",
                    "",  # invalid: reported in place, siblings still answered
                    {"question": "  "},
                    {"question": "Which IXPs is AS2497 a member of?"},
                    42,
                ]
            },
        )
        assert status == 200
        oks = [item["ok"] for item in payload["results"]]
        assert oks == [True, False, False, True, False]
        assert "question" in payload["results"][1]["error"]
        assert "string or an object" in payload["results"][4]["error"]

    def test_envelope_validation(self, batch_server):
        _, port = batch_server
        for bad in ({}, {"questions": "nope"}, {"questions": []}):
            status, payload, _ = _post(port, "/ask_batch", bad)
            assert status == 400
            assert "questions" in payload["error"]

    def test_batch_size_cap(self, batch_server):
        _, port = batch_server
        status, payload, _ = _post(
            port, "/ask_batch", {"questions": ["q"] * 7}
        )
        assert status == 400
        assert "exceeds 6" in payload["error"]

    def test_bad_batch_level_deadline(self, batch_server):
        _, port = batch_server
        for bad in (-5, float("nan")):
            status, payload, _ = _post(
                port, "/ask_batch", {"questions": ["q"], "deadline_ms": bad}
            )
            assert status == 400, bad
            assert "deadline_ms" in payload["error"]

    def test_bad_item_deadline_is_per_item(self, batch_server):
        _, port = batch_server
        status, payload, _ = _post(
            port,
            "/ask_batch",
            {
                "questions": [
                    {"question": "q one", "deadline_ms": True},
                    {"question": "q two", "deadline_ms": float("nan")},
                    "Which country is AS2497 registered in?",
                ]
            },
        )
        assert status == 200
        assert [item["ok"] for item in payload["results"]] == [False, False, True]
        assert "deadline_ms" in payload["results"][0]["error"]
        assert "deadline_ms" in payload["results"][1]["error"]


class TestAskBatchDeadlines:
    def test_tiny_per_item_deadline_degrades_only_that_item(self, batch_server):
        _, port = batch_server
        status, payload, _ = _post(
            port,
            "/ask_batch",
            {
                "questions": [
                    {
                        "question": "Which ASes does AS2497 peer with at IXPs?",
                        "deadline_ms": 0.001,
                    },
                    "Which IXPs is AS15169 a member of?",
                ]
            },
        )
        assert status == 200
        degraded_item, fresh_item = payload["results"]
        assert degraded_item["ok"] and fresh_item["ok"]
        assert degraded_item["response"]["diagnostics"]["degraded"]
        assert not fresh_item["response"]["diagnostics"]["degraded"]


class TestAskBatchAdmission:
    def test_batch_holds_exactly_one_admission_slot(
        self, batch_server, batch_bot, monkeypatch
    ):
        server, port = batch_server
        admission = server.admission
        active_during = []
        real_ask = batch_bot.ask

        def observed_ask(question, **kwargs):
            active_during.append(admission.snapshot()["active"])
            return real_ask(question, **kwargs)

        monkeypatch.setattr(batch_bot, "ask", observed_ask)
        status, payload, _ = _post(
            port, "/ask_batch", {"questions": ["q a", "q b", "q c"]}
        )
        assert status == 200
        assert "workers" not in payload
        assert all(item["ok"] for item in payload["results"])
        assert active_during == [1, 1, 1]
        assert admission.snapshot()["active"] == 0  # returned before responding

        # With 3 of 4 slots taken elsewhere the batch takes the last one.
        active_during.clear()
        for _ in range(3):
            assert admission.acquire(timeout=0)
        try:
            status, _, _ = _post(
                port, "/ask_batch", {"questions": ["q d", "q e", "q f"]}
            )
            assert admission.snapshot()["active"] == 3
        finally:
            for _ in range(3):
                admission.release()
        assert status == 200
        assert active_during == [4, 4, 4]

    def test_batch_is_shed_when_no_slot_frees_up(self, batch_bot, small_dataset):
        server, port = start_background(
            batch_bot,
            max_concurrency=1,
            max_queue_depth=0,
            queue_timeout_s=0.05,
            max_batch_size=4,
        )
        try:
            assert server.admission.acquire(timeout=0)  # saturate the only slot
            try:
                status, payload, headers = _post(
                    port, "/ask_batch", {"questions": ["q x"]}
                )
            finally:
                server.admission.release()
            assert status == 503
            assert "Retry-After" in headers
        finally:
            server.shutdown()

    def test_slots_returned_after_batch(self, batch_server):
        server, port = batch_server
        before = server.admission.snapshot()
        status, _, _ = _post(port, "/ask_batch", {"questions": ["q g", "q h"]})
        assert status == 200
        after = server.admission.snapshot()
        assert after["active"] == before["active"] == 0


class TestAskBatchAPI:
    def test_deadline_sequence_length_mismatch(self, batch_bot):
        with pytest.raises(ValueError, match="length"):
            batch_bot.ask_batch(["a", "b"], deadline_ms=[100.0])

    def test_invalid_item_budget_fails_only_that_item(self, batch_bot):
        question = "How many prefixes does AS2497 originate?"
        outcomes = batch_bot.ask_batch([question, question], deadline_ms=[None, -1])
        assert outcomes[0].ok and outcomes[0].value.question == question
        assert outcomes[1].index == 1
        assert isinstance(outcomes[1].error, ValueError)

    def test_empty_batch(self, batch_bot):
        assert batch_bot.ask_batch([]) == []

    def test_outcomes_in_input_order(self, batch_bot):
        questions = [
            "Which country is AS2497 registered in?",
            "Which country is AS15169 registered in?",
        ]
        outcomes = batch_bot.ask_batch(questions)
        assert [outcome.value.question for outcome in outcomes] == questions
        assert all(outcome.ok for outcome in outcomes)

    def test_runs_on_calling_thread_without_starting_threads(
        self, batch_bot, monkeypatch
    ):
        # Threads other tests started may exit mid-batch, so the check is
        # that no thread appears, not that the process-wide count holds.
        before = set(threading.enumerate())
        seen = []
        real_ask = batch_bot.ask

        def observed_ask(question, **kwargs):
            seen.append((threading.current_thread(), set(threading.enumerate()) - before))
            return real_ask(question, **kwargs)

        monkeypatch.setattr(batch_bot, "ask", observed_ask)
        outcomes = batch_bot.ask_batch(["q one", "q two", "q three", "q four"])
        assert all(outcome.ok for outcome in outcomes)
        assert seen == [(threading.current_thread(), set())] * 4

    def test_errors_captured_per_item(self, batch_bot, monkeypatch):
        real_ask = batch_bot.ask

        def flaky_ask(question, **kwargs):
            if question == "boom":
                raise KeyboardInterrupt("boom")  # BaseException, not Exception
            return real_ask(question, **kwargs)

        monkeypatch.setattr(batch_bot, "ask", flaky_ask)
        outcomes = batch_bot.ask_batch(["q one", "boom", "q two"])
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        assert [outcome.index for outcome in outcomes] == [0, 1, 2]
        assert isinstance(outcomes[1].error, KeyboardInterrupt)
        assert outcomes[2].value.question == "q two"

    @pytest.mark.parametrize("cache_size", [0, 16])
    def test_repeated_question_in_batch_is_deterministic(
        self, small_dataset, cache_size
    ):
        bot = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(dataset_size="small", answer_cache_size=cache_size),
        )
        question = "Which country is AS2497 registered in?"
        batch = [question, "Which IXPs is AS2497 a member of?", question, question]

        def run():
            if bot.answer_cache is not None:
                bot.answer_cache.clear()
            bodies = []
            for outcome in bot.ask_batch(batch):
                body = outcome.value.to_dict()
                body["diagnostics"].pop("stage_timings")
                bodies.append(body)
            return bodies

        first = run()
        for _ in range(4):
            assert run() == first
        hits = [body["diagnostics"]["cache_hit"] for body in first]
        assert hits == ([False, False, True, True] if cache_size else [False] * 4)
        assert not any(body["diagnostics"]["coalesced"] for body in first)

    def test_deadlines_start_at_call_time(self, batch_bot):
        # An already-expired shared deadline should degrade, not hang.
        deadline = Deadline(0.001)
        response = batch_bot.ask(
            "Which ASes peer with AS2497 at AMS-IX?", deadline=deadline
        )
        assert response.diagnostics.get("degraded")
