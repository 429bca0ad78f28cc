"""Cypher engine per-row cost: first executions of the seed-7 replay texts.

Runs every text of the ``cypher_replay_large`` workload's seed-7 pass (its
gold and generated Cypher, in workload order) on the large graph, the way
that workload's pass does: a fresh engine per pass, so each query shape
is parsed, planned and lowered on first sight, a 1000 ms deadline per
execution, and an unused parameter on every call so no result is reused.
The pass is dominated by the few unanchored label scans that emit
thousands of rows, so it measures the engine's per-row cost.

The texts are drawn by ``benchmarks/e2e/run.py --draw-inputs`` in a child
process.  The two trees, each with its own copy of the large graph, are
timed against each other in one process by ``benchmarks/same_run.py``;
the result is a same-run ratio::

    python benchmarks/bench_rows.py --baseline-src ../parent/src --output BENCH_rows.json

``--src`` defaults to this checkout's ``src``.  ``test_rows_smoke`` below
runs one round of this tree against itself.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import same_run

_ROOT = Path(__file__).resolve().parent.parent

SEED = 7
ROUNDS = 15  # alternating passes over the texts per tree
DEADLINE_MS = 1000.0  # the served deadline the replay workload runs under


def replay_texts(seed: int) -> list[str]:
    """The replay workload's Cypher texts for ``seed``, in pass order."""
    drawn = subprocess.run(
        [sys.executable, str(_ROOT / "benchmarks" / "e2e" / "run.py"), "--draw-inputs",
         "--workload", "cypher_replay_large", "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    return [query for _question, query, _is_gold in json.loads(drawn.stdout)["items"]]


def passes(module, texts: list[str]) -> dict:
    """One pass of a tree, in milliseconds: the first execution of every
    text on a fresh engine over the tree's own large graph."""
    iyp = module("iyp")
    store = iyp.generate_iyp(iyp.IYPConfig.large(seed=42)).store
    engine = module("cypher").CypherEngine
    deadline = module("serving").Deadline
    error = module("cypher.errors").CypherError

    def replay() -> float:
        execute = engine(store).execute
        start = time.perf_counter()
        for text in texts:
            try:
                execute(text, {"_execute": 1}, deadline=deadline.start(DEADLINE_MS))
            except error:
                pass
        return (time.perf_counter() - start) * 1000.0

    return {"replay": replay}


def main(argv: list[str] | None = None) -> int:
    args = same_run.parser(__doc__).parse_args(argv)
    texts = replay_texts(SEED)
    samples = same_run.compare_trees("rows", args.src, args.baseline_src,
                                     lambda module: passes(module, texts), ROUNDS)
    summary = same_run.summarize(samples, figure_digits=1, ratio_digits=3)
    return same_run.write({
        "benchmark": "cypher_rows",
        "texts": len(texts),
        "protocol": (f"seed-{SEED} cypher_replay_large texts on the large graph, first "
                     "execution on a fresh engine per pass, result reuse bypassed; "
                     + same_run.protocol(ROUNDS, "milliseconds per pass")),
        "host": same_run.host(),
        "change_ms": summary["change"]["replay"],
        "baseline_ms": summary["baseline"]["replay"],
        "ratio": summary["ratio"]["replay"],
        "ratio_range": summary["ratio_range"]["replay"],
    }, args.output)


def test_rows_smoke(tmp_path, monkeypatch):
    """One round, this tree on both sides: every key is there."""
    monkeypatch.setattr(sys.modules[__name__], "ROUNDS", 1)
    output = tmp_path / "BENCH_rows.json"
    src = str(_ROOT / "src")
    assert main(["--src", src, "--baseline-src", src, "--output", str(output)]) == 0
    result = json.loads(output.read_text())
    assert set(result) == {"benchmark", "texts", "protocol", "host", "change_ms",
                           "baseline_ms", "ratio", "ratio_range"}
    assert min(result["texts"], result["change_ms"], result["baseline_ms"]) > 0
    low, high = result["ratio_range"]
    assert 0 < low <= result["ratio"] <= high


if __name__ == "__main__":
    raise SystemExit(main())
