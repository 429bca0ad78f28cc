"""Cypher front-end timing: ``tokenize``, ``parse``, ``lookup`` and ``execute`` per query text.

Times the lexer and the parser of two source trees over the parse golden's
corpus (``tests/test_parse_golden.py``: the seed-7 perturbation
corpus with broken-syntax seeds 0-11, plus its hand list of lexer edge
cases).  Every text is timed whether it parses or raises
``CypherSyntaxError``.  The ``lookup`` stage times text → cached query
entry (``CypherEngine.is_read_only``, which goes through the query cache)
for every corpus text that parses but the first of each shape, on a fresh
engine per pass that already holds those first texts: what a first-seen
text of a known shape pays before it runs.  The ``execute`` stage runs ``CypherEngine.execute``
on every text of the corpus without the hand list, in corpus order, on a
fresh engine over the small graph per pass, so it pays each text's fixed
cost as a first-seen text does: tokenize per text, and parse, plan and
lower per query shape (a text that does not parse is parsed every time),
with whatever the engine's query cache reuses across texts.  Each text raises or returns;
the hand list is left out: it is lexer edge cases, and its all-nodes
``shortestPath`` runs for seconds.

The two trees are timed against each other in one process by
``benchmarks/same_run.py``; the result is a same-run ratio::

    python benchmarks/bench_frontend.py --baseline-src ../parent/src --output BENCH_frontend.json

``--src`` defaults to this checkout's ``src``.  ``test_frontend_smoke``
below runs one round of this tree against itself.
"""

from __future__ import annotations

import json
import sys
import time
from functools import partial
from pathlib import Path

import same_run

_ROOT = Path(__file__).resolve().parent.parent

STAGES = ("tokenize", "parse", "lookup", "execute")
ROUNDS = 31  # alternating passes over the corpus per tree and stage


def corpus() -> tuple[list[str], list[str]]:
    """The parse golden's corpus texts and its hand list, built from this checkout."""
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]
    from repro.iyp import IYPConfig, generate_iyp
    from tests.test_parse_golden import HAND, front_end_corpus

    return front_end_corpus(generate_iyp(IYPConfig.small(seed=42))), HAND


def one_per_shape(texts: list[str]) -> tuple[list[str], list[str]]:
    """Of the distinct texts that parse, the first of each query shape (the
    texts that add a shape to the query cache of one engine that has seen
    every text before them) and the others."""
    from repro.cypher import CypherEngine
    from repro.cypher.errors import CypherError
    from repro.graph import GraphStore

    engine = CypherEngine(GraphStore(), cache_size=len(texts))
    firsts, others = [], []
    for text in dict.fromkeys(texts):
        shapes = len(engine._shapes)
        try:
            engine._entry(text)
        except CypherError:
            continue
        (firsts if len(engine._shapes) > shapes else others).append(text)
    return firsts, others


def passes(module, texts: dict[str, list[str]], firsts: list[str]) -> dict:
    """Per stage, one pass of a tree over its texts, in microseconds per text;
    ``firsts`` are the texts the ``lookup`` stage's engine holds."""
    iyp = module("iyp")
    store = iyp.generate_iyp(iyp.IYPConfig.small(seed=42)).store
    tokenize, parse = module("cypher.lexer").tokenize, module("cypher.parser").parse
    engine = module("cypher").CypherEngine
    error = module("cypher.errors").CypherError

    def holding_firsts():
        warm = engine(store)
        for text in firsts:
            try:
                warm.is_read_only(text)
            except error:
                pass
        return warm.is_read_only

    makers = {"tokenize": lambda: tokenize, "parse": lambda: parse,
              "lookup": holding_firsts, "execute": lambda: engine(store).execute}

    def one_pass(make, stage_texts) -> float:
        function = make()
        start = time.perf_counter()
        for text in stage_texts:
            try:
                function(text)
            except error:
                pass
        return (time.perf_counter() - start) / len(stage_texts) * 1e6

    return {stage: partial(one_pass, makers[stage], texts[stage]) for stage in STAGES}


def main(argv: list[str] | None = None) -> int:
    args = same_run.parser(__doc__).parse_args(argv)
    pinned, hand = corpus()
    firsts, others = one_per_shape(pinned)
    texts = {"tokenize": pinned + hand, "parse": pinned + hand, "lookup": others,
             "execute": pinned}
    samples = same_run.compare_trees("frontend", args.src, args.baseline_src,
                                     lambda module: passes(module, texts, firsts), ROUNDS)
    return same_run.write({
        "benchmark": "cypher_frontend",
        "corpus_texts": {stage: len(stage_texts) for stage, stage_texts in texts.items()},
        "protocol": same_run.protocol(ROUNDS, "microseconds per text"),
        "host": same_run.host(),
        **same_run.summarize(samples, key=lambda stage: f"{stage}_us"),
    }, args.output)


def test_frontend_smoke(tmp_path, monkeypatch):
    """One round, this tree on both sides: every key is there."""
    monkeypatch.setattr(sys.modules[__name__], "ROUNDS", 1)
    output = tmp_path / "BENCH_frontend.json"
    src = str(_ROOT / "src")
    assert main(["--src", src, "--baseline-src", src, "--output", str(output)]) == 0
    result = json.loads(output.read_text())
    assert set(result) == {"benchmark", "corpus_texts", "protocol", "host",
                           "change", "baseline", "ratio", "ratio_range"}
    assert set(result["corpus_texts"]) == set(STAGES)
    for side in ("change", "baseline"):
        assert set(result[side]) == {f"{stage}_us" for stage in STAGES}
        assert all(value > 0 for value in result[side].values())
    assert set(result["ratio"]) == set(result["ratio_range"]) == set(STAGES)
    assert all(ratio > 0 for ratio in result["ratio"].values())


if __name__ == "__main__":
    raise SystemExit(main())
