"""ChatIYP start-up timing: what a build derives from the graph before its first ask.

Times, for two source trees:

* ``descriptions``: ``build_description_corpus`` over the medium graph;
* ``schema``: ``introspect_schema(store).describe()`` over the medium graph;
* ``corpus_embed``: ``VectorStore`` over the medium graph's description
  corpus (tokenize, embed, freeze the entries);
* ``embed``: one ``HashingEmbedding.embed`` call per description of the
  small graph, the single-text call search and the simulated reranker make;
* ``chatiyp_medium`` and ``chatiyp_large``: the whole ``ChatIYP`` build on
  an already generated medium or large graph, as ``ask_cold_mix``'s
  ``setup.system_s`` times it.

Both trees are imported into one process, under names of their own, each
with its own copy of the graphs, and timed in alternating rounds, so host
load hits both sides alike.  Every stage gets one untimed pass first, which
warms the embedding's bucket caches as a served process's earlier builds
would.  The result is a same-run ratio (baseline time / change time, the
median over rounds; above 1 means the change is faster).  Memory is read
apart from the timing: one child process per tree generates the medium
graph, builds ``ChatIYP`` once and reports ``VmHWM`` and ``VmRSS`` from
``/proc/self/status``::

    python benchmarks/bench_startup.py --baseline-src ../parent/src --output BENCH_startup.json

``--src`` defaults to this checkout's ``src``.  ``--smoke`` runs one round
with the small graph everywhere; ``test_startup_smoke`` below runs it on
this tree against itself, so the paper-claims CI job keeps the script
working.
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

ROUNDS = 9  # alternating rounds per tree and stage
STAGES = ("descriptions", "schema", "corpus_embed", "embed", "chatiyp_medium", "chatiyp_large")
#: graph each stage runs on; ``--smoke`` runs every stage on the small graph
GRAPHS = {
    "descriptions": "medium", "schema": "medium", "corpus_embed": "medium",
    "embed": "small", "chatiyp_medium": "medium", "chatiyp_large": "large",
}


def figure_name(stage: str) -> str:
    """The result key of a stage's median: ``embed`` per text, the rest per pass."""
    return f"{stage}_us_per_text" if stage == "embed" else f"{stage}_ms"


def load_tree(src: Path, name: str, graphs: dict[str, str]) -> dict:
    """Import the ``repro`` package under ``src`` as ``name``; per stage, a
    callable that runs one pass of it on that tree's own graph, and the
    number of units (texts for ``embed``, else 1) a pass covers."""
    init = src / "repro" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    iyp = importlib.import_module(f"{name}.iyp")
    core = importlib.import_module(f"{name}.core")
    rag = importlib.import_module(f"{name}.rag")
    schema = importlib.import_module(f"{name}.graph.schema")
    embed = importlib.import_module(f"{name}.embed")

    datasets = {size: iyp.generate_iyp(getattr(iyp.IYPConfig, size)(seed=42))
                for size in sorted(set(graphs.values()))}
    stores = {size: dataset.store for size, dataset in datasets.items()}
    corpus = rag.build_description_corpus(stores[graphs["corpus_embed"]])
    texts = [text for _, text, _ in rag.build_description_corpus(stores[graphs["embed"]])]
    model = embed.HashingEmbedding()

    def build(size: str):
        config = core.ChatIYPConfig(dataset_size=size)
        return lambda: core.ChatIYP(dataset=datasets[size], config=config)

    def embed_each():
        for text in texts:
            model.embed(text)

    return {
        "descriptions": (lambda: rag.build_description_corpus(stores[graphs["descriptions"]]), 1),
        "schema": (lambda: schema.introspect_schema(stores[graphs["schema"]]).describe(), 1),
        "corpus_embed": (lambda: embed.VectorStore(corpus), 1),
        "embed": (embed_each, len(texts)),
        "chatiyp_medium": (build(graphs["chatiyp_medium"]), 1),
        "chatiyp_large": (build(graphs["chatiyp_large"]), 1),
    }


def one_pass(run) -> float:
    """Seconds for one call of ``run``."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def memory_after_build(src: Path, size: str) -> dict:
    """``VmHWM``/``VmRSS`` (MB) of a child process that generated the
    ``size`` graph and built ``ChatIYP`` on it once, with the tree ``src``."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--memory-child", str(src),
         "--graph", size],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    return json.loads(child.stdout)


def _memory_child(src: Path, size: str) -> None:
    sys.path.insert(0, str(src))
    from repro.core import ChatIYP, ChatIYPConfig
    from repro.iyp import IYPConfig, generate_iyp

    ChatIYP(dataset=generate_iyp(getattr(IYPConfig, size)(seed=42)),
            config=ChatIYPConfig(dataset_size=size))
    status = Path("/proc/self/status")
    fields = {}
    if status.exists():
        for line in status.read_text().splitlines():
            key, _, value = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                fields[key] = int(value.split()[0])  # kB
    print(json.dumps({
        "vm_hwm_mb": round(fields["VmHWM"] / 1024, 1) if "VmHWM" in fields else None,
        "vm_rss_mb": round(fields["VmRSS"] / 1024, 1) if "VmRSS" in fields else None,
    }))


def run(src: Path, baseline_src: Path, smoke: bool = False) -> dict:
    """Time both trees and read their memory; the result ``main`` writes."""
    rounds = 1 if smoke else ROUNDS
    graphs = {stage: "small" for stage in STAGES} if smoke else dict(GRAPHS)
    trees = {"change": load_tree(src.resolve(), "_startup_change", graphs),
             "baseline": load_tree(baseline_src.resolve(), "_startup_baseline", graphs)}
    for tree in trees.values():  # one untimed pass each: bucket caches, imports
        for stage in STAGES:
            one_pass(tree[stage][0])
    seconds = {side: {stage: [] for stage in STAGES} for side in trees}
    for index in range(rounds):
        # Alternate which tree goes first, so neither always runs warm.
        order = list(trees) if index % 2 == 0 else list(reversed(trees))
        for stage in STAGES:
            for side in order:
                seconds[side][stage].append(one_pass(trees[side][stage][0]))

    result: dict = {
        "benchmark": "chatiyp_startup",
        "graphs": graphs,
        "protocol": (f"{rounds} rounds of one pass per tree and stage, trees alternating "
                     "in one process after one untimed pass each; medians over rounds, "
                     "in milliseconds per pass (embed: microseconds per text); ratio: "
                     "median of the rounds' baseline/change; memory: one child process "
                     f"per tree after one {graphs['chatiyp_medium']} ChatIYP build"),
        "host": f"{platform.python_implementation()} {platform.python_version()}, "
                f"{platform.machine()}, {os.cpu_count()} CPUs",
    }
    for side, stages in seconds.items():
        result[side] = {
            figure_name(stage): round(statistics.median(runs) / trees[side][stage][1]
                                      * (1e6 if stage == "embed" else 1e3), 2)
            for stage, runs in stages.items()
        }
    result["ratio"] = {
        stage: round(statistics.median(
            base / change for base, change in
            zip(seconds["baseline"][stage], seconds["change"][stage])
        ), 2)
        for stage in STAGES
    }
    result["memory"] = {
        "change": memory_after_build(src.resolve(), graphs["chatiyp_medium"]),
        "baseline": memory_after_build(baseline_src.resolve(), graphs["chatiyp_medium"]),
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=_ROOT / "src",
                        help="source tree of the change (default: this checkout)")
    parser.add_argument("--baseline-src", type=Path,
                        help="source tree to compare against, e.g. the parent commit's")
    parser.add_argument("--output", type=Path, help="write the JSON result here")
    parser.add_argument("--smoke", action="store_true",
                        help="one round, the small graph for every stage")
    parser.add_argument("--memory-child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--graph", default="medium", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.memory_child is not None:
        _memory_child(args.memory_child, args.graph)
        return 0
    if args.baseline_src is None:
        parser.error("--baseline-src is required")

    result = run(args.src, args.baseline_src, smoke=args.smoke)
    text = json.dumps(result, indent=2) + "\n"
    if args.output is not None:
        args.output.write_text(text)
    print(text, end="")
    return 0


def test_startup_smoke(tmp_path):
    """One round on the small graph, this tree on both sides: every key is there."""
    output = tmp_path / "BENCH_startup.json"
    src = _ROOT / "src"
    assert main(["--src", str(src), "--baseline-src", str(src), "--smoke",
                 "--output", str(output)]) == 0
    result = json.loads(output.read_text())
    assert set(result["ratio"]) == set(STAGES)
    expected = {figure_name(stage) for stage in STAGES}
    for side in ("change", "baseline"):
        assert set(result[side]) == expected
        assert all(value > 0 for value in result[side].values())
        assert set(result["memory"][side]) == {"vm_hwm_mb", "vm_rss_mb"}
    assert all(ratio > 0 for ratio in result["ratio"].values())


if __name__ == "__main__":
    raise SystemExit(main())
