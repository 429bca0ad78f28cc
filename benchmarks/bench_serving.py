"""Serving-layer benchmarks (not a paper figure, not a CI gate).

Quantifies what the hardening layer costs and buys:

* answer-cache speedup — cold pipeline ask vs. repeated (cached) ask
* admission-controller overhead — bare acquire/release round-trip
* concurrent throughput — 16 client threads against the in-process
  ``ChatIYP.ask`` with a deadline configured, reporting cache hit rate

Run standalone::

    python benchmarks/bench_serving.py --quick
"""

import argparse
import json
import statistics
import sys
import threading
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # allow `python benchmarks/bench_serving.py`
    sys.path.insert(0, str(_SRC))

from repro.core import ChatIYP, ChatIYPConfig
from repro.serving import AdmissionController

QUESTIONS = [
    "Which country is AS2497 registered in?",
    "Which country is AS15169 registered in?",
    "How many prefixes does AS2497 originate?",
    "What organization manages AS13335?",
]


def _median_ms(fn, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def bench_cache_speedup(chatiyp, repeats):
    question = QUESTIONS[0]
    chatiyp.answer_cache.clear()
    cold = _median_ms(
        lambda: (chatiyp.answer_cache.clear(), chatiyp.ask(question)), repeats
    )
    chatiyp.ask(question)  # prime
    warm = _median_ms(lambda: chatiyp.ask(question), repeats)
    return {
        "cold_ms": round(cold, 4),
        "cached_ms": round(warm, 4),
        "speedup": round(cold / warm, 1) if warm else None,
    }


def bench_admission_overhead(repeats):
    controller = AdmissionController(max_concurrency=8, max_queue_depth=16)

    def round_trip():
        controller.acquire()
        controller.release()

    return {"acquire_release_us": round(_median_ms(round_trip, repeats) * 1000.0, 3)}


def bench_concurrent_throughput(chatiyp, threads=16, requests_per_thread=8):
    chatiyp.answer_cache.clear()
    chatiyp.metrics.reset()

    errors = []

    def worker(tid):
        try:
            for i in range(requests_per_thread):
                chatiyp.ask(QUESTIONS[(tid + i) % len(QUESTIONS)], deadline_ms=30_000.0)
        except Exception as exc:  # noqa: BLE001 - re-raised on the main thread
            errors.append(exc)

    clients = [threading.Thread(target=worker, args=(tid,)) for tid in range(threads)]
    start = time.perf_counter()
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    total = threads * requests_per_thread
    return {
        "threads": threads,
        "requests": total,
        "wall_s": round(elapsed, 3),
        "asks_per_s": round(total / elapsed, 1),
        "cache_hit_rate": round(chatiyp.answer_cache.stats()["hit_rate"], 3),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer repeats")
    parser.add_argument("--json", type=Path, default=None, help="write results here")
    args = parser.parse_args(argv)
    repeats = 5 if args.quick else 20

    chatiyp = ChatIYP(
        config=ChatIYPConfig(dataset_size="small", answer_cache_size=256)
    )
    results = {
        "cache": bench_cache_speedup(chatiyp, repeats),
        "admission": bench_admission_overhead(repeats * 100),
        "concurrent": bench_concurrent_throughput(chatiyp),
    }
    print(json.dumps(results, indent=2))
    if args.json:
        args.json.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
