"""Self-tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import compare
import inputs
import pace
import workloads
from repro.core import ChatIYPConfig
from repro.iyp import IYPConfig, generate_iyp
from spans import Span, SpanRecorder, self_times

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def small():
    return generate_iyp(IYPConfig.small(seed=42))


@pytest.fixture(scope="module")
def gold(small):
    return inputs.gold_set(small)


def test_smoke_run_reports_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1", "--json", str(out)],
        capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    results = json.loads(out.read_text())
    assert sorted(r["workload"] for r in results) == sorted(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    for result in results:
        assert result["correct"], result["checks"]
        assert set(m["name"] for m in SPEC["end_to_end"]) <= set(result["end_to_end"])
        assert result["attempted"] >= 1
    # A layer a workload never enters (the LLM in the Cypher replay) reads 0
    # there; every per-layer metric must be measured by some workload.
    measured = set().union(*(result["per_layer"] for result in results))
    assert set(m["name"] for m in SPEC["per_layer"]) <= measured
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_same_seed_same_schedules_other_seed_differs(small, gold):
    translate = inputs.translator(small, ChatIYPConfig())

    def schedules(seed):
        return (
            inputs.sweep(gold, small, translate, seed),
            inputs.write_batches(small, seed, 5),
            inputs.poisson_arrivals(seed, 100.0, 2.0),
            inputs.zipf_draws(seed, 50, 300, 0.9),
        )

    first, again, other = schedules(11), schedules(11), schedules(12)
    assert first == again
    for mine, theirs in zip(first, other):
        assert mine != theirs


def test_sweeps_keep_the_gold_mix(small, gold):
    translate = inputs.translator(small, ChatIYPConfig())
    sweep = inputs.sweep(gold, small, translate, 3)
    assert [(q.template, q.outcome) for q in sweep] == [
        (g.template, inputs.outcome(translate(g.question))) for g in gold]
    assert [q.text for q in inputs.sweep(gold, small, translate, inputs.GOLD_SEED)] == [
        g.question for g in gold]
    # On another graph (the large one) the gold seed draws twins too.
    redrawn = inputs.sweep(gold, small, translate, inputs.GOLD_SEED, gold_graph=False)
    assert [q.text for q in redrawn] != [g.question for g in gold]


def test_self_time_subtracts_direct_children():
    ms = 1e-3
    spans = [
        Span(1, None, "ask", 0 * ms, 10 * ms, 1),
        Span(2, 1, "rag.symbolic", 1 * ms, 4 * ms, 1),
        Span(3, 1, "rag.rerank", 5 * ms, 9 * ms, 1),
        Span(4, 3, "llm.rerank", 6 * ms, 7 * ms, 1),
        Span(5, 3, "llm.rerank", 7 * ms, 8 * ms, 1),
    ]
    selfs = {name: sum(values) for name, values in self_times(spans).items()}
    assert selfs == pytest.approx(
        {"ask": 3.0, "rag.symbolic": 3.0, "rag.rerank": 2.0, "llm.rerank": 2.0})


def test_recorder_nests_spans_and_closes_abandoned_ones():
    recorder = SpanRecorder()
    with recorder.span("ask", request=7):
        recorder.open("rag.symbolic")  # a stage that raised never closes
        with recorder.span("cypher.execute"):
            pass
    by_name = {span.name: span for span in recorder.spans}
    assert set(by_name) == {"ask", "rag.symbolic", "cypher.execute"}
    assert by_name["cypher.execute"].parent == by_name["rag.symbolic"].span_id
    assert by_name["rag.symbolic"].parent == by_name["ask"].span_id
    assert {span.request for span in recorder.spans} == {7}


def test_pacer_scales_by_the_samples_around_an_interval():
    pacer = pace.Pacer()
    pacer.starts = [0.000, 0.010, 0.020]
    pacer.kernel_s = [pace.REFERENCE_S, 2 * pace.REFERENCE_S, pace.REFERENCE_S]
    # Two samples inside: their kernel time is not the interval's, and the
    # host ran at half speed for one of them.
    assert pacer.measured(0.005, 0.025) == pytest.approx(0.020 - 3 * pace.REFERENCE_S)
    assert pacer.scale(0.005, 0.025) == pytest.approx(0.75)
    # None inside: the samples either side.
    assert pacer.measured(0.011, 0.012) == pytest.approx(0.001)
    assert pacer.scale(0.011, 0.012) == pytest.approx(0.75)
    assert pacer.scale(0.021, 0.022) == pytest.approx(1.0)
    assert pacer.reference(0.011, 0.012) == pytest.approx(0.00075)


def test_pacer_samples_while_entered():
    with pace.Pacer(interval=0.005) as pacer:
        time.sleep(0.05)
    assert len(pacer.starts) >= 5
    assert pacer.starts == sorted(pacer.starts)
    assert all(seconds > 0 for seconds in pacer.kernel_s)


def test_served_config_matches_server_cli(monkeypatch):
    from repro.server import app, cli

    captured = {}
    monkeypatch.setattr(cli, "ChatIYP", lambda config: captured.setdefault("config", config))
    monkeypatch.setattr(app, "serve", lambda chatiyp, **kwargs: captured.update(kwargs))
    cli.main(list(workloads.SERVER_ARGS))
    assert captured["config"] == workloads.served_config("medium")
    assert captured["deadline_ms"] == workloads.DEADLINE_MS


def test_rows_compare_as_multisets_unless_ordered():
    up, down = checks.summarize([("1",), ("2",)]), checks.summarize([("2",), ("1",)])
    assert checks.same("MATCH (n) RETURN n.x", up, down)
    assert not checks.same("MATCH (n) RETURN n.x ORDER BY n.x", up, down)
    assert not checks.same("MATCH (n) RETURN n.x", up, checks.summarize([("1",), ("1",)]))
    assert not checks.same("MATCH (n) RETURN n.x", "CypherSyntaxError", checks.summarize([]))


def test_compare_marks_noisy_metrics_unresolved():
    steady = [100.0, 101.0, 99.0, 100.0, 100.5]
    noisy = [60.0, 140.0, 100.0, 80.0, 120.0]
    assert compare.verdict(steady, [v * 1.01 for v in steady], "lower", 0.05) == "unchanged"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower", 0.05) == "worse"
    assert compare.verdict(noisy, [v * 1.01 for v in noisy], "lower", 0.05) == "unresolved"


def test_compare_pairs_seed_fixed_metrics():
    parent = {1: 0.54, 2: 0.50, 3: 0.56}
    assert compare.paired_verdict(parent, dict(parent), "higher") == "unchanged"
    assert compare.paired_verdict(parent, {**parent, 2: 0.499}, "higher") == "worse"
    assert compare.paired_verdict(parent, {**parent, 3: 0.57}, "higher") == "better"
    assert compare.paired_verdict(parent, {9: 0.5}, "higher") is None
