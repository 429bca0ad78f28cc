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
  ``setup.system_s`` times it;
* ``generate_large``: ``generate_iyp`` of the large graph plus its first
  ``statistics()``, the graph load a new dump costs before the planner can
  plan (``ChatIYP`` and the planner read the statistics, so a build pays
  for their first derivation, wherever it happens).

The two trees, each with its own copy of the graphs, are timed against
each other in one process by ``benchmarks/same_run.py``, whose untimed
first pass per stage warms the embedding's bucket caches as a served
process's earlier builds would; the result is a same-run ratio.  Memory is read
apart from the timing, in two child processes per tree: one generates the
medium graph, builds ``ChatIYP`` once and reports ``VmHWM`` and ``VmRSS``
from ``/proc/self/status``; the other traces ``generate_iyp`` of the large
graph with ``tracemalloc`` and reports what the graph holds, in MB and in
bytes per node or relationship (the store's footprint, which sets how large
a snapshot one process can serve)::

    python benchmarks/bench_startup.py --baseline-src ../parent/src --output BENCH_startup.json

``--src`` defaults to this checkout's ``src``.  ``--scale N`` multiplies
every entity count of the large graph by ``N`` (``same_run.ENTITY_COUNTS``,
as ``bench_ask.py --scale`` does), for the ``chatiyp_large`` and
``generate_large`` stages and the traced store, in ``ROUNDS_AT_SCALE``
rounds.  ``--smoke`` runs one round with the small graph everywhere;
``test_startup_smoke`` below runs it on this tree against itself, so the
paper-claims CI job keeps the script working.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import same_run

_ROOT = Path(__file__).resolve().parent.parent

ROUNDS = 9  # alternating rounds per tree and stage
ROUNDS_AT_SCALE = 5  # the same, with --scale
DATASET_SEED = 42
STAGES = ("descriptions", "schema", "corpus_embed", "embed", "chatiyp_medium", "chatiyp_large",
          "generate_large")
#: graph each stage runs on; ``--smoke`` runs every stage on the small graph
GRAPHS = {
    "descriptions": "medium", "schema": "medium", "corpus_embed": "medium",
    "embed": "small", "chatiyp_medium": "medium", "chatiyp_large": "large",
    "generate_large": "large",
}


def figure_name(stage: str) -> str:
    """The result key of a stage's median: ``embed`` per text, the rest per pass."""
    return f"{stage}_us_per_text" if stage == "embed" else f"{stage}_ms"


def _config(iyp, size: str, scale: int | None):
    """The tree's ``IYPConfig`` of ``size``; ``scale`` multiplies only the large one."""
    return same_run.graph_config(iyp, size, DATASET_SEED, scale if size == "large" else None)


def passes(module, graphs: dict[str, str], scale: int | None = None) -> dict:
    """Per stage, one pass of a tree on its own graph: milliseconds per pass,
    or for ``embed`` microseconds per text."""
    iyp, core, rag = module("iyp"), module("core"), module("rag")
    schema, embed = module("graph.schema"), module("embed")

    configs = {size: _config(iyp, size, scale) for size in sorted(set(graphs.values()))}
    datasets = {size: iyp.generate_iyp(config) for size, config in configs.items()}
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

    def timed(run, unit: float):
        def one_pass() -> float:
            start = time.perf_counter()
            run()
            return (time.perf_counter() - start) * unit
        return one_pass

    return {
        "descriptions": timed(lambda: rag.build_description_corpus(stores[graphs["descriptions"]]),
                              1e3),
        "schema": timed(lambda: schema.introspect_schema(stores[graphs["schema"]]).describe(), 1e3),
        "corpus_embed": timed(lambda: embed.VectorStore(corpus), 1e3),
        "embed": timed(embed_each, 1e6 / len(texts)),
        "chatiyp_medium": timed(build(graphs["chatiyp_medium"]), 1e3),
        "chatiyp_large": timed(build(graphs["chatiyp_large"]), 1e3),
        "generate_large": timed(
            lambda: iyp.generate_iyp(configs[graphs["generate_large"]]).store.statistics(), 1e3),
    }


def memory_after_build(src: Path, size: str) -> dict:
    """``VmHWM``/``VmRSS`` (MB) of a child process that generated the
    ``size`` graph and built ``ChatIYP`` on it once, with the tree ``src``."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--memory-child", str(src),
         "--graph", size],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    return json.loads(child.stdout)


def traced_store(src: Path, size: str, scale: int | None = None) -> dict:
    """MB that ``tracemalloc`` sees held after generating the ``size`` graph
    (``scale`` as in :func:`_config`), and bytes per entity (node or
    relationship), in a child process with the tree ``src``."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--traced-child", str(src),
         "--graph", size, *(["--scale", str(scale)] if scale else [])],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    return json.loads(child.stdout)


def _traced_child(src: Path, size: str, scale: int | None) -> None:
    sys.path.insert(0, str(src))
    import tracemalloc

    from repro import iyp

    config = _config(iyp, size, scale)
    tracemalloc.start()
    store = iyp.generate_iyp(config).store
    traced, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    entities = store.node_count + store.relationship_count
    print(json.dumps({
        "store_traced_mb": round(traced / 1e6, 1),
        "store_bytes_per_entity": round(traced / entities),
    }))


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


def main(argv: list[str] | None = None) -> int:
    parser = same_run.parser(__doc__, baseline_required=False)
    parser.add_argument("--smoke", action="store_true",
                        help="one round, the small graph for every stage")
    parser.add_argument("--scale", type=int, metavar="N",
                        help="multiply every entity count of the large graph by N")
    parser.add_argument("--memory-child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--traced-child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--graph", default="medium", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.memory_child is not None:
        _memory_child(args.memory_child, args.graph)
        return 0
    if args.traced_child is not None:
        _traced_child(args.traced_child, args.graph, args.scale)
        return 0
    if args.baseline_src is None:
        parser.error("--baseline-src is required")

    rounds = 1 if args.smoke else ROUNDS_AT_SCALE if args.scale else ROUNDS
    graphs = {stage: "small" for stage in STAGES} if args.smoke else dict(GRAPHS)
    scale = None if args.smoke else args.scale
    samples = same_run.compare_trees("startup", args.src, args.baseline_src,
                                     lambda module: passes(module, graphs, scale), rounds)
    return same_run.write({
        "benchmark": "chatiyp_startup",
        "graphs": graphs,
        "large_scale": scale,
        "protocol": (same_run.protocol(rounds, "milliseconds per pass (embed: microseconds "
                                       "per text)") + "; memory: one child process per tree "
                     f"after one {graphs['chatiyp_medium']} ChatIYP build, and one tracing "
                     f"{graphs['generate_large']} generate_iyp"),
        "host": same_run.host(),
        **same_run.summarize(samples, key=figure_name),
        "memory": {side: {**memory_after_build(tree.resolve(), graphs["chatiyp_medium"]),
                          **traced_store(tree.resolve(), graphs["generate_large"], scale)}
                   for side, tree in (("change", args.src), ("baseline", args.baseline_src))},
    }, args.output)


def test_startup_smoke(tmp_path):
    """One round on the small graph, this tree on both sides: every key is there."""
    output = tmp_path / "BENCH_startup.json"
    src = _ROOT / "src"
    assert main(["--src", str(src), "--baseline-src", str(src), "--smoke",
                 "--output", str(output)]) == 0
    result = json.loads(output.read_text())
    assert set(result["ratio"]) == set(result["ratio_range"]) == set(STAGES)
    for side in ("change", "baseline"):
        assert set(result[side]) == {figure_name(stage) for stage in STAGES}
        assert all(value > 0 for value in result[side].values())
        assert set(result["memory"][side]) == {
            "vm_hwm_mb", "vm_rss_mb", "store_traced_mb", "store_bytes_per_entity"}
        assert result["memory"][side]["store_bytes_per_entity"] > 0
    assert all(ratio > 0 for ratio in result["ratio"].values())


if __name__ == "__main__":
    raise SystemExit(main())
