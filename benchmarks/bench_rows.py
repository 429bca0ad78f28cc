"""Cypher engine per-row cost: first executions of the seed-7 replay texts.

Runs every text of the ``cypher_replay_large`` workload's seed-7 pass (its
gold and generated Cypher, in workload order) on the large graph, the way
that workload's pass does: a fresh engine per pass, so each query shape
is parsed, planned and lowered on first sight, a 1000 ms deadline per
execution, and an unused parameter on every call so no result is reused.
The pass is dominated by the few unanchored label scans that emit
thousands of rows, so it measures the engine's per-row cost.

The texts are drawn by ``benchmarks/e2e/run.py --draw-inputs`` in a child
process.  Both source trees are imported into one process under names of
their own, each with its own copy of the large graph, and timed in
alternating passes, so host load hits both sides alike.  The result is a
same-run ratio (baseline time / change time, the median over rounds;
above 1 means the change is faster)::

    python benchmarks/bench_rows.py --baseline-src ../parent/src --output BENCH_rows.json

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
import subprocess
import sys
import time
from pathlib import Path

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


def load_tree(src: Path, name: str) -> dict:
    """Import the ``repro`` package under ``src`` as ``name``: a function
    that makes a fresh engine's ``execute`` over its own large graph, the
    deadline class, and the error class."""
    init = src / "repro" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    engine = importlib.import_module(f"{name}.cypher").CypherEngine
    iyp = importlib.import_module(f"{name}.iyp")
    store = iyp.generate_iyp(iyp.IYPConfig.large(seed=42)).store
    return {
        "execute": lambda: engine(store).execute,
        "deadline": importlib.import_module(f"{name}.serving").Deadline,
        "error": importlib.import_module(f"{name}.cypher.errors").CypherError,
    }


def one_pass(tree: dict, texts: list[str]) -> float:
    """Seconds for one first execution of every text on a fresh engine."""
    execute, deadline, error = tree["execute"](), tree["deadline"], tree["error"]
    start = time.perf_counter()
    for text in texts:
        try:
            execute(text, {"_execute": 1}, deadline=deadline.start(DEADLINE_MS))
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

    texts = replay_texts(SEED)
    trees = {"change": load_tree(args.src.resolve(), "_rows_change"),
             "baseline": load_tree(args.baseline_src.resolve(), "_rows_baseline")}
    for tree in trees.values():  # one untimed pass each: caches and specialization
        one_pass(tree, texts)
    seconds: dict[str, list[float]] = {side: [] for side in trees}
    for index in range(ROUNDS):
        # Alternate which tree goes first, so neither always runs warm.
        order = list(trees) if index % 2 == 0 else list(reversed(trees))
        for side in order:
            seconds[side].append(one_pass(trees[side], texts))

    ratios = sorted(base / change for base, change in zip(seconds["baseline"], seconds["change"]))
    result = {
        "benchmark": "cypher_rows",
        "texts": len(texts),
        "protocol": (f"seed-{SEED} cypher_replay_large texts on the large graph, first "
                     "execution on a fresh engine per pass, result reuse bypassed; "
                     f"{ROUNDS} rounds of one pass per tree, trees alternating in one "
                     "process; medians over rounds; ratio: median of the rounds' "
                     "baseline/change"),
        "host": f"{platform.python_implementation()} {platform.python_version()}, "
                f"{platform.machine()}, {os.cpu_count()} CPUs",
        "change_ms": round(statistics.median(seconds["change"]) * 1000.0, 1),
        "baseline_ms": round(statistics.median(seconds["baseline"]) * 1000.0, 1),
        "ratio": round(statistics.median(ratios), 3),
        "ratio_range": [round(ratios[0], 3), round(ratios[-1], 3)],
    }
    text = json.dumps(result, indent=2) + "\n"
    if args.output is not None:
        args.output.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
