"""Cookbook: observe the RAG pipeline with a custom PipelineObserver.

Run::

    python examples/custom_observer.py

The RAG engine runs four fixed steps per question (symbolic retrieval →
fallback routing → rerank → synthesis).  A ``PipelineObserver`` receives a
callback around each one, with the request's ``QueryContext``, which is
the seam for tracing, metrics, or any cross-cutting instrumentation.
This example attaches

* a hand-written observer that prints a live per-stage timeline,
* the built-in ``TracingObserver`` (structured spans), and
* the built-in ``MetricsRegistry`` (cumulative latency aggregates),

then asks one question that stays symbolic and one that falls back to
vector retrieval, and prints what each observer captured.
"""

from repro import ChatIYP, ChatIYPConfig
from repro.rag import MetricsRegistry, PipelineObserver, TracingObserver


class StageTimeline(PipelineObserver):
    """Prints each step as it runs, with duration and any typed error."""

    def on_stage_start(self, stage, ctx):
        print(f"    ▶ {stage} ...")

    def on_stage_end(self, stage, ctx, elapsed_ms):
        print(f"    ✔ {stage} finished in {elapsed_ms:.2f} ms")

    def on_error(self, stage, error, ctx):
        print(f"    ✘ {stage} recorded {type(error).__name__}: {error}")


def main() -> None:
    timeline = StageTimeline()
    tracer = TracingObserver()
    metrics = MetricsRegistry()

    print("Building ChatIYP with three pipeline observers attached...")
    bot = ChatIYP(
        config=ChatIYPConfig(dataset_size="small", error_base=0.0, error_slope=0.0),
        observers=[timeline, tracer, metrics],
    )

    questions = [
        # Clean symbolic translation: all four steps succeed.
        "Which country is AS2497 registered in?",
        # Untranslatable: the symbolic step records a
        # SymbolicTranslationError and routing falls back to vector.
        "Tell me something interesting about Japanese infrastructure",
    ]
    for question in questions:
        print(f"\nQ: {question}")
        response = bot.ask(question)
        print(f"A: {response.answer}")
        print(f"   route={response.diagnostics.get('route')}  "
              f"source={response.retrieval_source}")

    print("\nTracingObserver spans (ordered, one per step run):")
    for span in tracer.to_dicts():
        error = f"  error={span['error']}" if "error" in span else ""
        print(f"  #{span['index']:02d} {span['stage']:9s} "
              f"{span['elapsed_ms']:8.2f} ms{error}")

    print("\nMetricsRegistry snapshot (cumulative, what /metrics serves):")
    snapshot = metrics.snapshot()
    for stage, stats in snapshot["stages"].items():
        print(f"  {stage:9s} calls={stats['calls']} errors={stats['errors']} "
              f"mean={stats['mean_ms']:.2f} ms max={stats['max_ms']:.2f} ms")
    for counter, value in snapshot["counters"].items():
        print(f"  counter {counter} = {value}")


if __name__ == "__main__":
    main()
