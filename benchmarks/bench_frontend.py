"""Cypher front-end timing: ``tokenize``, ``parse`` and ``execute`` per query text.

Times the lexer and the parser of two source trees over the parse golden's
corpus (``tests/test_parse_golden.py``: the seed-7 perturbation
corpus with broken-syntax seeds 0-11, plus its hand list of lexer edge
cases).  Every text is timed whether it parses or raises
``CypherSyntaxError``.  The ``execute`` stage runs ``CypherEngine.execute``
on every text of the corpus without the hand list, in corpus order, on a
fresh engine over the small graph per pass, so it pays each text's fixed
cost as a first-seen text does: tokenize per text, and parse, plan and
lower per query shape (a text that does not parse is parsed every time),
with whatever the engine's query cache reuses across texts.  Each text raises or returns;
the hand list is left out: it is lexer edge cases, and its all-nodes
``shortestPath`` runs for seconds.

Both trees are imported into one process, under names of their own, and
timed in alternating passes over the corpus, so host load hits both sides
alike.  The result is a same-run ratio (baseline
time / change time, the median over rounds; above 1 means the change is
faster)::

    python benchmarks/bench_frontend.py --baseline-src ../parent/src --output BENCH_frontend.json

``--src`` defaults to this checkout's ``src``.  No CI job runs this script.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

STAGES = ("tokenize", "parse", "execute")
ROUNDS = 31  # alternating passes over the corpus per tree and stage


def corpus() -> tuple[list[str], list[str]]:
    """The parse golden's corpus texts and its hand list, built from this checkout."""
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]
    from repro.iyp import IYPConfig, generate_iyp
    from tests.test_parse_golden import HAND, front_end_corpus

    return front_end_corpus(generate_iyp(IYPConfig.small(seed=42))), HAND


def load_tree(src: Path, name: str) -> dict:
    """Import the ``repro`` package under ``src`` as ``name``: per stage, a
    function that makes the callable one pass times, plus the error class."""
    init = src / "repro" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    tokenize = importlib.import_module(f"{name}.cypher.lexer").tokenize
    parse = importlib.import_module(f"{name}.cypher.parser").parse
    engine = importlib.import_module(f"{name}.cypher").CypherEngine
    iyp = importlib.import_module(f"{name}.iyp")
    store = iyp.generate_iyp(iyp.IYPConfig.small(seed=42)).store
    return {
        "tokenize": lambda: tokenize,
        "parse": lambda: parse,
        "execute": lambda: engine(store).execute,
        "error": importlib.import_module(f"{name}.cypher.errors").CypherError,
    }


def one_pass(make, error: type, texts: list[str]) -> float:
    """Seconds for one call on every text of the callable ``make()`` returns."""
    function = make()
    start = time.perf_counter()
    for text in texts:
        try:
            function(text)
        except error:
            pass
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=_ROOT / "src",
                        help="source tree of the change (default: this checkout)")
    parser.add_argument("--baseline-src", type=Path, required=True,
                        help="source tree to compare against, e.g. the parent commit's")
    parser.add_argument("--output", type=Path, help="write the JSON result here")
    args = parser.parse_args(argv)

    pinned, hand = corpus()
    texts = {"tokenize": pinned + hand, "parse": pinned + hand, "execute": pinned}
    trees = {"change": load_tree(args.src.resolve(), "_frontend_change"),
             "baseline": load_tree(args.baseline_src.resolve(), "_frontend_baseline")}
    for tree in trees.values():  # one untimed pass each: caches and specialization
        for stage in STAGES:
            one_pass(tree[stage], tree["error"], texts[stage])
    seconds = {side: {stage: [] for stage in STAGES} for side in trees}
    for index in range(ROUNDS):
        # Alternate which tree goes first, so neither always runs warm.
        order = list(trees) if index % 2 == 0 else list(reversed(trees))
        for stage in STAGES:
            for side in order:
                tree = trees[side]
                seconds[side][stage].append(
                    one_pass(tree[stage], tree["error"], texts[stage]))

    result: dict = {
        "benchmark": "cypher_frontend",
        "corpus_texts": {stage: len(stage_texts) for stage, stage_texts in texts.items()},
        "protocol": (f"{ROUNDS} rounds of one pass over the corpus per tree and stage, "
                     "trees alternating in one process; medians over rounds, in "
                     "microseconds per text; ratio: median of the rounds' baseline/change"),
        "host": f"{platform.python_implementation()} {platform.python_version()}, "
                f"{platform.machine()}, {os.cpu_count()} CPUs",
    }
    for side, stages in seconds.items():
        result[side] = {
            f"{stage}_us": round(statistics.median(runs) / len(texts[stage]) * 1e6, 2)
            for stage, runs in stages.items()
        }
    result["ratio"] = {
        stage: round(statistics.median(
            base / change for base, change in
            zip(seconds["baseline"][stage], seconds["change"][stage])
        ), 2)
        for stage in STAGES
    }
    text = json.dumps(result, indent=2) + "\n"
    if args.output is not None:
        args.output.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
