"""ChatIYP ask timing: one cold seed-7 gold sweep through the served configuration.

For two source trees, each with its own copy of the medium graph (dataset
seed 42), a pass builds a fresh ``ChatIYP`` in the configuration
``python -m repro.server --serve --deadline-ms 1000`` runs (1000 ms
deadline, breaker at 5 failures, 256-entry answer cache, in-flight
coalescing; see ``SERVED``), so its answer cache and query results start
cold, collects garbage, and then asks every question of the CypherEval
gold set (seed 7) in order.  Only the asks are timed.  Stages, in milliseconds per ask:

* ``ask``: the wall time of ``ChatIYP.ask``;
* ``system``: the same, less the time spent inside ``llm.complete``: the
  system's own time, without the simulated backbone's, which a deployment
  spends in a remote LLM instead (ROADMAP item 1);
* ``retrieve``: the time spent inside ``VectorContextRetriever.retrieve``
  (the vector route's scan, re-score and lexical boost), per ask of the
  sweep, whether or not the ask took the vector route.

Per side, measured alongside those stages (medians over rounds):

* ``cpu_ms``: the process CPU time (``time.process_time``, every thread)
  per ask of the ``ask`` passes; above ``ask_ms`` when library threads
  (OpenBLAS's) spin beside the asking one;
* ``llm_ms_per_ask``: the time inside ``llm.complete`` per ask of the
  ``system`` passes, by prompt task and in total, i.e. the simulated
  backbone's heads; ``llm_ratio`` is the median of the rounds'
  baseline/change ratios of each;
* ``llm_calls_per_ask``: the ``llm.complete`` calls per ask of the last
  ``system`` pass, by prompt task and in total.

The two trees are timed against each other in one process by
``benchmarks/same_run.py``; the result is a same-run ratio::

    python benchmarks/bench_ask.py --baseline-src ../parent/src --output BENCH_ask.json

``--src`` defaults to this checkout's ``src``.  ``--scale N`` measures
on ``IYPConfig.large`` with every entity count multiplied by ``N``
(``same_run.ENTITY_COUNTS``) instead of the medium graph, in
``ROUNDS_AT_SCALE`` rounds, since one pass there builds a system for
several seconds.
``--smoke`` runs one round on the small graph; ``test_ask_smoke`` below
runs it on this tree against itself, so the paper-claims CI job keeps
the script working.
"""

from __future__ import annotations

import gc
import json
import re
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import same_run

_ROOT = Path(__file__).resolve().parent.parent

ROUNDS = 15  # alternating rounds per tree and stage
ROUNDS_AT_SCALE = 5  # the same, with --scale
STAGES = ("ask", "system", "retrieve")
DATASET_SEED = 42
GOLD_SEED = 7
#: ``ChatIYPConfig`` fields ``--serve --deadline-ms 1000`` sets, as
#: ``benchmarks/e2e/workloads.py`` builds them; the rest stay default
SERVED = {
    "deadline_ms": 1000.0,
    "breaker_failure_threshold": 5,
    "answer_cache_size": 256,
    "coalesce_inflight": True,
}
_TASK_RE = re.compile(r"\[TASK:\s*(\w+)\]")


def passes(module, size: str, calls: Counter, extras: defaultdict,
           scale: int | None = None) -> dict:
    """Per stage, one pass of a tree: milliseconds per ask of a cold gold
    sweep.  The ``system`` passes count ``llm.complete`` calls by task into
    ``calls`` (their last pass's counts are kept) and append each task's
    milliseconds inside ``llm.complete`` per ask to ``extras["llm.<task>"]``;
    the ``ask`` passes append their CPU milliseconds per ask to
    ``extras["cpu"]``."""
    iyp, core, cyphereval = module("iyp"), module("core"), module("eval.cyphereval")
    dataset = iyp.generate_iyp(same_run.graph_config(iyp, size, DATASET_SEED, scale))
    questions = [item.question for item in cyphereval.build_cyphereval(dataset, seed=GOLD_SEED)]
    config = core.ChatIYPConfig(dataset_size=size, **SERVED)

    def build():
        system = core.ChatIYP(dataset=dataset, config=config)
        gc.collect()  # the last pass's system is garbage; collect it untimed
        return system

    def ask_pass() -> float:
        system = build()
        cpu = time.process_time()
        start = time.perf_counter()
        for question in questions:
            system.ask(question)
        elapsed = time.perf_counter() - start
        extras["cpu"].append((time.process_time() - cpu) * 1e3 / len(questions))
        return elapsed * 1e3 / len(questions)

    def system_pass() -> float:
        system = build()
        complete = system.llm.complete
        inside: Counter = Counter()
        calls.clear()

        def timed_complete(prompt: str):
            match = _TASK_RE.search(prompt)
            task = match.group(1).lower() if match else "answer"
            calls[task] += 1
            begin = time.perf_counter()
            try:
                return complete(prompt)
            finally:
                inside[task] += time.perf_counter() - begin

        system.llm.complete = timed_complete
        start = time.perf_counter()
        for question in questions:
            system.ask(question)
        elapsed = time.perf_counter() - start
        calls["asks"] = len(questions)
        inside["total"] = sum(inside.values())
        for task, seconds in inside.items():
            extras[f"llm.{task}"].append(seconds * 1e3 / len(questions))
        return (elapsed - inside["total"]) * 1e3 / len(questions)

    def retrieve_pass() -> float:
        system = build()
        vector = system.pipeline.vector
        retrieve = vector.retrieve
        inside = 0.0

        def timed_retrieve(*args, **kwargs):
            nonlocal inside
            begin = time.perf_counter()
            try:
                return retrieve(*args, **kwargs)
            finally:
                inside += time.perf_counter() - begin

        vector.retrieve = timed_retrieve
        for question in questions:
            system.ask(question)
        return inside * 1e3 / len(questions)

    return {"ask": ask_pass, "system": system_pass, "retrieve": retrieve_pass}


def calls_per_ask(calls: Counter) -> dict:
    """``llm.complete`` calls per ask of one sweep, by task and in total."""
    asks = calls["asks"]
    tasks = {task: count for task, count in sorted(calls.items()) if task != "asks"}
    return {**{task: round(count / asks, 3) for task, count in tasks.items()},
            "total": round(sum(tasks.values()) / asks, 3)}


def per_ask_extras(extras: dict[str, defaultdict]) -> dict:
    """Per side, the median CPU and per-task LLM milliseconds per ask; per task,
    the median of the rounds' baseline/change ratios.  Each series' first
    sample, the untimed pass, is left out."""
    rounds = {side: {key: samples[1:] for key, samples in series.items()}
              for side, series in extras.items()}
    llm = {side: {key.removeprefix("llm."): round(statistics.median(samples), 3)
                  for key, samples in sorted(series.items()) if key.startswith("llm.")}
           for side, series in rounds.items()}
    ratio = {key.removeprefix("llm."): round(statistics.median(
                 base / change for base, change in zip(samples, rounds["change"][key])), 2)
             for key, samples in sorted(rounds["baseline"].items()) if key.startswith("llm.")}
    return {
        "cpu_ms": {side: round(statistics.median(series["cpu"]), 3)
                   for side, series in rounds.items()},
        "llm_ms_per_ask": llm,
        "llm_ratio": ratio,
    }


def main(argv: list[str] | None = None) -> int:
    parser = same_run.parser(__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="one round on the small graph")
    parser.add_argument("--scale", type=int, metavar="N",
                        help="measure on the large graph with every count multiplied by N")
    args = parser.parse_args(argv)
    rounds = 1 if args.smoke else ROUNDS_AT_SCALE if args.scale else ROUNDS
    size = "small" if args.smoke else "large" if args.scale else "medium"
    calls = {"change": Counter(), "baseline": Counter()}
    extras = {"change": defaultdict(list), "baseline": defaultdict(list)}
    samples = same_run.alternate({
        side: passes(same_run.load_tree(tree.resolve(), f"_ask_{side}"), size, calls[side],
                     extras[side], args.scale)
        for side, tree in (("change", args.src), ("baseline", args.baseline_src))
    }, rounds)
    return same_run.write({
        "benchmark": "chatiyp_ask",
        "graph": f"{size} x{args.scale}" if args.scale else size,
        "workload": (f"one cold sweep of the CypherEval gold set (seed {GOLD_SEED}) per pass, "
                     f"fresh ChatIYP per pass, served configuration {SERVED}"),
        "protocol": same_run.protocol(rounds, "milliseconds per ask"),
        "host": same_run.host(),
        **same_run.summarize(samples, key=lambda stage: f"{stage}_ms", figure_digits=3),
        **per_ask_extras(extras),
        "llm_calls_per_ask": {side: calls_per_ask(counts) for side, counts in calls.items()},
    }, args.output)


def test_ask_smoke(tmp_path):
    """One round on the small graph, this tree on both sides: every key is there."""
    output = tmp_path / "BENCH_ask.json"
    src = _ROOT / "src"
    assert main(["--src", str(src), "--baseline-src", str(src), "--smoke",
                 "--output", str(output)]) == 0
    result = json.loads(output.read_text())
    assert set(result["ratio"]) == set(result["ratio_range"]) == set(STAGES)
    for side in ("change", "baseline"):
        assert set(result[side]) == {f"{stage}_ms" for stage in STAGES}
        assert 0 < result[side]["system_ms"] < result[side]["ask_ms"]
        assert 0 < result[side]["retrieve_ms"] < result[side]["system_ms"]
        assert result["cpu_ms"][side] > 0
        per_ask = result["llm_calls_per_ask"][side]
        assert per_ask["total"] >= per_ask["text2cypher"] > 0
        llm_ms = result["llm_ms_per_ask"][side]
        assert set(llm_ms) == set(per_ask)
        assert llm_ms["total"] >= llm_ms["text2cypher"] > 0
    assert set(result["llm_ratio"]) == set(result["llm_ms_per_ask"]["change"])
    assert all(ratio > 0 for ratio in result["llm_ratio"].values())
    assert result["llm_calls_per_ask"]["change"] == result["llm_calls_per_ask"]["baseline"]


if __name__ == "__main__":
    raise SystemExit(main())
