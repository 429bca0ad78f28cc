"""Command-line evaluation runner.

Run the full CypherEval evaluation from a shell::

    python -m repro.eval --size medium --per-template 9 --csv results.csv

Prints the Figure 2a/2b tables, both findings and the failure-mode
analysis; optionally writes the per-question CSV.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from ..core.chatiyp import ChatIYP
from ..core.config import ChatIYPConfig
from .analysis import render_failure_table
from .cyphereval import build_cyphereval, dataset_summary
from .harness import EvaluationHarness
from .humansim import annotate_report
from .report import (
    figure_2a_table,
    figure_2b_table,
    finding1_table,
    finding2_table,
    report_to_csv,
    template_table,
)

__all__ = ["main"]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Run the ChatIYP evaluation and print the paper's figures",
    )
    parser.add_argument("--size", default="medium", choices=("small", "medium", "large"))
    parser.add_argument("--seed", type=int, default=0, help="backbone LLM seed")
    parser.add_argument("--dataset-seed", type=int, default=42)
    parser.add_argument("--question-seed", type=int, default=7)
    parser.add_argument("--per-template", type=int, default=9)
    parser.add_argument("--limit", type=int, default=None, help="evaluate only the first N")
    parser.add_argument("--csv", type=Path, default=None, help="write per-question CSV here")
    parser.add_argument("--decompose", action="store_true",
                        help="enable the sub-question decomposition extension")
    parser.add_argument("--no-histograms", action="store_true")
    args = parser.parse_args(argv)

    config = ChatIYPConfig(
        seed=args.seed,
        dataset_size=args.size,
        dataset_seed=args.dataset_seed,
        use_decomposition=args.decompose,
    )
    chatiyp = ChatIYP(config=config)
    questions = build_cyphereval(
        chatiyp.dataset, seed=args.question_seed, per_template=args.per_template
    )
    print(f"Benchmark: {dataset_summary(questions)}")
    print(f"Backbone: {chatiyp.llm.model_name}")
    print()

    harness = EvaluationHarness(chatiyp, questions)
    report = harness.run(limit=args.limit)
    annotate_report(report)

    print(figure_2a_table(report, with_histograms=not args.no_histograms))
    print()
    print(figure_2b_table(report))
    print()
    print(finding1_table(report))
    print()
    print(finding2_table(report))
    print()
    print(render_failure_table(report))
    print()
    print(template_table(report))

    if args.csv is not None:
        args.csv.write_text(report_to_csv(report))
        print(f"\nPer-question scores written to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
