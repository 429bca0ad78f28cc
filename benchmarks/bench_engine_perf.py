"""Supporting performance benchmarks (not a paper figure).

Throughput of the substrate layers every ChatIYP query crosses: Cypher
point lookups, traversals and aggregations on the medium IYP graph, vector
search over the description corpus, and the full pipeline ask.

Two entry points:

* ``pytest benchmarks/bench_engine_perf.py`` — pytest-benchmark suite; the
  engine-latency subset is also tagged ``-m perf_smoke``.
* ``python benchmarks/bench_engine_perf.py --quick`` — standalone runner
  that times the engine queries with the planner on and off and writes
  ``BENCH_engine.json`` (median latencies plus speedups over the
  pre-planner seed baselines).
"""

import argparse
import json
import statistics
import sys
import time
from functools import partial
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # allow `python benchmarks/bench_engine_perf.py`
    sys.path.insert(0, str(_SRC))

import pytest

import same_run
from repro.cypher import CypherEngine
from repro.rag import VectorContextRetriever

#: The engine-latency suite shared by the pytest benchmarks and --quick mode.
ENGINE_QUERIES = {
    "point_lookup": "MATCH (a:AS {asn: 2497}) RETURN a.name",
    "point_lookup_where": "MATCH (a:AS) WHERE a.asn = 2497 RETURN a.name",
    "one_hop": "MATCH (:AS {asn: 2497})-[:ORIGINATE]->(p:Prefix) RETURN p.prefix",
    "two_hop": (
        "MATCH (:AS {asn: 2497})-[:PEERS_WITH]-(b:AS)-[:COUNTRY]->(c:Country) "
        "RETURN DISTINCT c.country_code"
    ),
    "grouped_aggregation": (
        "MATCH (a:AS)-[:COUNTRY]->(c:Country) "
        "RETURN c.country_code AS cc, count(a) AS n ORDER BY n DESC LIMIT 10"
    ),
    "var_length": (
        "MATCH (:AS {asn: 2497})-[:DEPENDS_ON*1..2]->(t:AS) "
        "RETURN count(DISTINCT t) AS n"
    ),
    # The planner's remaining wins: a WHERE IN anchor probing the AS index
    # instead of scanning every ranked AS, ...
    "where_in_anchor": (
        "MATCH (a:AS)-[r:RANK]->(:Ranking {name: 'CAIDA ASRank'}) "
        "WHERE a.asn IN [247576, 121022] RETURN a.asn AS asn ORDER BY r.rank LIMIT 1"
    ),
    # ... the label-scan tie anchored at the end with fewer rows plus
    # first-hop edges (the IXPs, not every AS), ...
    "label_tie_direction": "MATCH (a:AS)-[:MEMBER_OF]->(:IXP) RETURN count(a) AS members",
    # ... and a relationship range pushed down to bind time.
    "rel_range": (
        "MATCH (a:AS)-[r:RANK]->(:Ranking {name: 'CAIDA ASRank'}) WHERE r.rank <= 5 "
        "MATCH (a)-[:ORIGINATE]->(p:Prefix) "
        "RETURN a.asn AS asn, count(p) AS prefixes ORDER BY prefixes DESC LIMIT 1"
    ),
    # Large-result shapes, where per-row operator overhead dominates: the
    # dropped-filter ORDER BY without LIMIT from the served tail, and a
    # global count over one hop.  Recorded so their planned-vs-unplanned
    # ratios are on file; ``--check`` fails on them only when the planner
    # is more than 1.5x slower than planner-off (the no-harm slack), so it
    # does not catch a smaller planned slowdown.
    "tail_order_by": (
        "MATCH (:AS)-[d:DEPENDS_ON]->(t:AS) "
        "RETURN t.asn AS asn, d.hege AS hegemony ORDER BY hegemony DESC"
    ),
    "global_count": "MATCH (:AS)-[:ORIGINATE]->(p:Prefix) RETURN count(p)",
}

#: Memory benchmark query: with streaming execution the peak per-operator
#: row count stays bounded by LIMIT, where the seed executor's
#: clause-boundary lists materialized the whole label scan.
MEMORY_SCAN_QUERY = "MATCH (n:AS) RETURN n LIMIT 5"

#: Median latencies (ms) measured on the pre-planner seed revision with the
#: same interleaved batched-median protocol as --quick mode uses.  Recorded
#: here so BENCH_engine.json can report speedups without rebuilding the seed.
SEED_MEDIANS_MS = {
    "point_lookup": 0.0138,
    "point_lookup_where": 1.52,
    "one_hop": 0.049,
    "two_hop": 0.086,
    "grouped_aggregation": 4.17,
    "var_length": 0.092,
}


@pytest.fixture(scope="module")
def engine(chatiyp_medium):
    return CypherEngine(chatiyp_medium.store)


@pytest.fixture(scope="module")
def vector(chatiyp_medium):
    return VectorContextRetriever(chatiyp_medium.store, top_k=8)


# The engine-latency benchmarks pass ``_execute=1``, a parameter no query
# reads: a parameterised run always plans and executes (only the parsed tree
# is reused), so they time planning plus execution rather than a memoised
# result.


@pytest.mark.perf_smoke
def test_perf_point_lookup(benchmark, engine):
    result = benchmark(engine.run, ENGINE_QUERIES["point_lookup"], _execute=1)
    assert len(result) == 1


@pytest.mark.perf_smoke
def test_perf_point_lookup_where(benchmark, engine):
    # Same lookup phrased as a WHERE equality: exercises predicate pushdown
    # into the property index instead of a label scan + filter.
    result = benchmark(engine.run, ENGINE_QUERIES["point_lookup_where"], _execute=1)
    assert len(result) == 1


@pytest.mark.perf_smoke
def test_perf_one_hop_traversal(benchmark, engine):
    result = benchmark(engine.run, ENGINE_QUERIES["one_hop"], _execute=1)
    assert len(result) >= 1


@pytest.mark.perf_smoke
def test_perf_two_hop_traversal(benchmark, engine):
    result = benchmark(engine.run, ENGINE_QUERIES["two_hop"], _execute=1)
    assert len(result) >= 1


@pytest.mark.perf_smoke
def test_perf_grouped_aggregation(benchmark, engine):
    result = benchmark(engine.run, ENGINE_QUERIES["grouped_aggregation"], _execute=1)
    assert len(result) == 10


@pytest.mark.perf_smoke
def test_perf_var_length_expansion(benchmark, engine):
    result = benchmark(engine.run, ENGINE_QUERIES["var_length"], _execute=1)
    assert result.single()["n"] >= 1


def test_perf_query_parse_cached(benchmark, engine):
    # Repeated identical read-only text is served from the engine's memo of
    # its last result; no parse, plan or execution.
    query = "MATCH (a:AS) WHERE a.asn > 100000 RETURN count(a)"
    engine.run(query)
    benchmark(engine.run, query)


def test_perf_vector_search(benchmark, vector):
    result = benchmark(vector.retrieve, "Japanese networks at internet exchanges")
    assert result.nodes


def test_perf_full_pipeline_ask(benchmark, chatiyp_medium):
    response = benchmark(
        chatiyp_medium.ask, "Which country is AS15169 registered in?"
    )
    assert response.answer


def _paired_median_latency_ms(
    planned: CypherEngine, unplanned: CypherEngine, query: str, batches: int, runs: int
) -> tuple[float, float]:
    """Median per-run latency of each engine over ``batches`` same-run rounds of
    one batch of ``runs`` runs per engine (``same_run.alternate``), so a load
    swing on the host hits both engines instead of skewing their ratio."""
    engines = {"planned": planned, "unplanned": unplanned}
    for engine in engines.values():
        engine.run(query, _execute=1)  # parse once, out of the measurement
    hits = [engine.cache_stats()["result_hits"] for engine in engines.values()]

    def batch(engine: CypherEngine) -> float:
        start = time.perf_counter()
        for _ in range(runs):
            # A parameter the query never reads: every run plans and
            # executes instead of returning the engine's memoised result.
            engine.run(query, _execute=1)
        return (time.perf_counter() - start) / runs * 1000.0

    samples = same_run.alternate({side: {"batch": partial(batch, engine)}
                                  for side, engine in engines.items()}, batches, warm_up=False)
    assert [engine.cache_stats()["result_hits"] for engine in engines.values()] == hits
    return tuple(statistics.median(samples[side]["batch"]) for side in engines)


def _memory_scan(store) -> dict:
    """Peak intermediate-row count for the memory benchmark query.

    Runs the query profiled and takes the largest per-operator row count in
    the executed tree; ``seed_peak_rows`` is the full label cardinality the
    pre-streaming executor materialized for the same query.
    """
    from repro.cypher.operators import max_operator_rows

    engine = CypherEngine(store)
    result = engine.execute(MEMORY_SCAN_QUERY, profile=True)
    return {
        "query": MEMORY_SCAN_QUERY,
        "limit": 5,
        "peak_operator_rows": max_operator_rows(result.profile),
        "seed_peak_rows": sum(1 for _ in store.nodes_by_label("AS")),
    }


def run_quick(output: Path | None, batches: int = 10, runs: int = 20) -> dict:
    """Time every engine query planner-on and planner-off; write ``output``."""
    from repro.iyp.loader import load_dataset

    store = load_dataset("medium").store
    planned = CypherEngine(store)
    unplanned = CypherEngine(store, planner=False)

    results = {}
    for name, query in ENGINE_QUERIES.items():
        planned_ms, unplanned_ms = _paired_median_latency_ms(
            planned, unplanned, query, batches, runs
        )
        seed_ms = SEED_MEDIANS_MS.get(name)
        results[name] = {
            "query": query,
            "median_ms": round(planned_ms, 4),
            "median_ms_planner_off": round(unplanned_ms, 4),
            "seed_median_ms": seed_ms,
            "speedup_vs_seed": round(seed_ms / planned_ms, 2) if seed_ms else None,
            "speedup_planner": round(unplanned_ms / planned_ms, 2),
        }
        print(
            f"{name:22s} planner={planned_ms:8.4f} ms  "
            f"off={unplanned_ms:8.4f} ms  seed={seed_ms} ms",
            file=sys.stderr,
        )

    memory_scan = _memory_scan(store)
    print(
        f"{'memory_scan':22s} peak={memory_scan['peak_operator_rows']} rows  "
        f"seed={memory_scan['seed_peak_rows']} rows",
        file=sys.stderr,
    )

    payload = {
        "benchmark": "engine_perf_quick",
        "dataset": "medium",
        "protocol": (
            f"median of {batches} alternating planner-on/off batches"
            f" x {runs} runs, parsed tree cached, planned per run"
        ),
        "queries": results,
        "memory_scan": memory_scan,
    }
    if output is not None:
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {output}", file=sys.stderr)
    return payload


#: Committed planner-on/off ratios below this are noise, not wins to protect.
_PROTECTED_WIN = 1.2
#: Planner-on may be at most this much slower than planner-off (same run).
_NO_HARM_SLACK = 0.5
#: The no-harm guard only applies above this median (ms) — sub-millisecond
#: medians jitter far beyond any slack worth alarming on.
_NO_HARM_FLOOR_MS = 0.5


def _planner_ratio(entry: dict) -> float | None:
    on = entry.get("median_ms")
    off = entry.get("median_ms_planner_off")
    if not on or not off:
        return None
    return off / on


def check_regressions(
    payload: dict, baseline_path: Path, tolerance: float = 0.30
) -> list[str]:
    """Compare fresh planner speedups against the committed baseline.

    Gates on the *same-run* planner-on vs. planner-off ratio, which is
    stable across machines and load — unlike ratios against the seed's
    absolute latencies, which were measured on one specific box and flake
    on any slower/busier runner (including CI).  Two rules:

    * every committed planner win (ratio ≥ ``_PROTECTED_WIN``) must hold
      to within ``tolerance`` of its committed ratio *in log space*
      (latency ratios are multiplicative: a lost index path turns an 80x
      win into ~1x, while timer jitter only wobbles it — a linear floor
      can't separate the two for very large wins), and
    * no query with a measurable median (≥ ``_NO_HARM_FLOOR_MS``) may run
      more than ``_NO_HARM_SLACK`` slower with the planner on than off —
      micro-queries are exempt, their sub-0.1 ms medians jitter beyond
      any slack worth alarming on.

    Returns one message per violation — the CI gate that keeps the
    planner's headline wins honest.
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, committed in baseline.get("queries", {}).items():
        entry = payload["queries"].get(name, {})
        committed_ratio = _planner_ratio(committed)
        current_ratio = _planner_ratio(entry)
        if committed_ratio is not None and current_ratio is not None:
            if committed_ratio >= _PROTECTED_WIN:
                floor = committed_ratio ** (1.0 - tolerance)
                if current_ratio < floor:
                    failures.append(
                        f"{name}: planner speedup {current_ratio:.2f}x < {floor:.2f}x "
                        f"(committed {committed_ratio:.2f}x, tolerance {tolerance:.0%})"
                    )
            elif (
                entry.get("median_ms_planner_off", 0.0) >= _NO_HARM_FLOOR_MS
                and current_ratio < 1.0 / (1.0 + _NO_HARM_SLACK)
            ):
                failures.append(
                    f"{name}: planner makes this query {1.0 / current_ratio:.2f}x "
                    f"slower than planner-off (> {_NO_HARM_SLACK:.0%} slack)"
                )
    committed_memory = baseline.get("memory_scan")
    current_memory = payload.get("memory_scan")
    if committed_memory and current_memory:
        # Deterministic (row counts, not timings): any growth over the
        # committed peak means streaming execution stopped bounding the
        # scan — e.g. a lowering change re-materializing before LIMIT.
        bound = committed_memory.get("peak_operator_rows")
        peak = current_memory.get("peak_operator_rows")
        if bound is not None and peak is not None and peak > bound:
            failures.append(
                f"memory_scan: peak intermediate rows {peak} > committed "
                f"bound {bound} for {committed_memory.get('query')!r}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="run the standalone engine-latency suite and write BENCH_engine.json",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="regression gate: compare speedups against the committed "
             "BENCH_engine.json (>30%% regression fails); does not overwrite it",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_engine.json",
    )
    parser.add_argument("--batches", type=int, default=10)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--tolerance", type=float, default=0.30)
    args = parser.parse_args(argv)
    if not args.quick:
        parser.error("use --quick (or run this file under pytest for full benchmarks)")
    if args.check:
        baseline_path = args.output
        if not baseline_path.exists():
            parser.error(f"--check needs a committed baseline at {baseline_path}")
        payload = run_quick(None, batches=args.batches, runs=args.runs)
        failures = check_regressions(payload, baseline_path, tolerance=args.tolerance)
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            return 1
        print("perf gate ok: no headline speedup regressed "
              f">{args.tolerance:.0%} vs {baseline_path.name}", file=sys.stderr)
        return 0
    run_quick(args.output, batches=args.batches, runs=args.runs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
