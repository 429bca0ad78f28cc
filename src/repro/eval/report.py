"""Report rendering: the tables and ASCII figures behind Figure 2a/2b.

Every benchmark prints through these helpers so the regenerated "figures"
are diffable text: metric-distribution tables with histograms (2a), G-Eval
by difficulty × domain (2b), metric-human correlations (Finding 1) and the
structural-complexity analysis (Finding 2).
"""

from __future__ import annotations

import csv
import io

from .cyphereval import DIFFICULTIES, DOMAINS
from .harness import METRIC_KEYS, EvaluationReport
from .stats import bimodality_coefficient, bootstrap_ci, histogram, pearson, spearman, summary

__all__ = [
    "ascii_histogram",
    "figure_2a_table",
    "figure_2b_table",
    "finding1_table",
    "finding2_table",
    "template_table",
    "stage_latency_table",
    "report_to_csv",
]

_BAR = "█"

#: pipeline stage names, in execution order (latency columns)
STAGE_KEYS = ("symbolic", "routing", "rerank", "synthesis")


def ascii_histogram(values: list[float], bins: int = 10, width: int = 32) -> str:
    """Horizontal ASCII histogram over [0, 1]."""
    counts = histogram(values, bins=bins)
    peak = max(counts) if counts else 1
    lines = []
    for index, count in enumerate(counts):
        lo = index / bins
        hi = (index + 1) / bins
        bar = _BAR * (round(width * count / peak) if peak else 0)
        lines.append(f"  {lo:.1f}-{hi:.1f} | {bar} {count}")
    return "\n".join(lines)


def _format_row(cells: list[str], widths: list[int]) -> str:
    return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(cell) for cell in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [_format_row(header, widths), "-+-".join("-" * width for width in widths)]
    lines.extend(_format_row(row, widths) for row in rows)
    return "\n".join(lines)


def figure_2a_table(report: EvaluationReport, with_histograms: bool = True) -> str:
    """Figure 2a: comparison of metric distributions."""
    header = ["metric", "mean", "median", "std", "p10", "p90", ">0.75", "bimodality"]
    rows = []
    for metric in METRIC_KEYS:
        values = report.scores(metric)
        stats = summary(values)
        rows.append(
            [
                metric,
                f"{stats.mean:.3f}",
                f"{stats.median:.3f}",
                f"{stats.std:.3f}",
                f"{stats.p10:.3f}",
                f"{stats.p90:.3f}",
                f"{report.fraction_above(metric, 0.75) * 100:.1f}%",
                f"{bimodality_coefficient(values):.3f}",
            ]
        )
    output = ["Figure 2a — metric score distributions over CypherEval",
              _render_table(header, rows)]
    if with_histograms:
        for metric in METRIC_KEYS:
            output.append(f"\n{metric} distribution:")
            output.append(ascii_histogram(report.scores(metric)))
    return "\n".join(output)


def figure_2b_table(report: EvaluationReport) -> str:
    """Figure 2b: G-Eval scores by difficulty (and domain), with 95% CIs."""
    header = ["difficulty", "domain", "n", "mean", "95% CI", "median", ">0.75", ">0.5"]
    rows = []
    for difficulty in DIFFICULTIES:
        for domain in (None, *DOMAINS):
            sub = report.filter(difficulty=difficulty, domain=domain)
            if not len(sub):
                continue
            scores = sub.scores("geval")
            stats = summary(scores)
            ci_lo, ci_hi = bootstrap_ci(scores, resamples=500)
            rows.append(
                [
                    difficulty,
                    domain or "all",
                    str(len(sub)),
                    f"{stats.mean:.3f}",
                    f"[{ci_lo:.2f},{ci_hi:.2f}]",
                    f"{stats.median:.3f}",
                    f"{sub.fraction_above('geval', 0.75) * 100:.1f}%",
                    f"{sub.fraction_above('geval', 0.5) * 100:.1f}%",
                ]
            )
    output = ["Figure 2b — G-Eval scores by difficulty and domain",
              _render_table(header, rows)]
    for difficulty in DIFFICULTIES:
        sub = report.filter(difficulty=difficulty)
        if len(sub):
            output.append(f"\nG-Eval distribution ({difficulty}):")
            output.append(ascii_histogram(sub.scores("geval"), bins=10, width=24))
    return "\n".join(output)


def finding1_table(report: EvaluationReport) -> str:
    """Finding 1: correlation of every metric with (simulated) human scores."""
    humans = report.human_scores()
    if len(humans) != len(report):
        raise ValueError("report must be annotated with human scores first")
    header = ["metric", "pearson", "spearman", "bimodality"]
    rows = []
    for metric in METRIC_KEYS:
        values = report.scores(metric)
        rows.append(
            [
                metric,
                f"{pearson(values, humans):.3f}",
                f"{spearman(values, humans):.3f}",
                f"{bimodality_coefficient(values):.3f}",
            ]
        )
    return "\n".join(
        [
            "Finding 1 — metric alignment with human judgment",
            _render_table(header, rows),
        ]
    )


def finding2_table(report: EvaluationReport) -> str:
    """Finding 2: structural complexity vs domain as failure driver."""
    from ..cypher.parser import parse
    from ..cypher import ast_nodes as ast

    def hops(cypher: str) -> int:
        tree = parse(cypher)
        queries = tree.queries if isinstance(tree, ast.UnionQuery) else (tree,)
        total = 0
        for query in queries:
            for clause in query.clauses:
                if isinstance(clause, ast.MatchClause):
                    for part in clause.pattern.parts:
                        total += part.hop_count
        return total

    by_hops: dict[int, list[float]] = {}
    for evaluation in report.evaluations:
        hop_count = hops(evaluation.question.gold_cypher)
        by_hops.setdefault(hop_count, []).append(evaluation.scores["geval"])
    header = ["gold hops", "n", "mean G-Eval", ">0.75"]
    rows = []
    for hop_count in sorted(by_hops):
        values = by_hops[hop_count]
        above = sum(1 for value in values if value > 0.75) / len(values)
        rows.append(
            [str(hop_count), str(len(values)), f"{sum(values)/len(values):.3f}",
             f"{above * 100:.1f}%"]
        )
    lines = [
        "Finding 2 — structural complexity, not domain, drives degradation",
        _render_table(header, rows),
        "",
        "Domain gap (mean G-Eval, general - technical) per difficulty:",
    ]
    for difficulty in DIFFICULTIES:
        general = report.filter(difficulty=difficulty, domain="general").mean("geval")
        technical = report.filter(difficulty=difficulty, domain="technical").mean("geval")
        lines.append(
            f"  {difficulty:7s}: general={general:.3f} technical={technical:.3f} "
            f"gap={general - technical:+.3f}"
        )
    return "\n".join(lines)


def template_table(report: EvaluationReport, worst_first: bool = True) -> str:
    """Per-template breakdown: where exactly does the system lose points?

    One row per question template with its difficulty label, question
    count, mean G-Eval and the >0.75 success fraction — the granularity a
    developer needs to pick what to fix next.
    """
    buckets: dict[str, list] = {}
    for evaluation in report.evaluations:
        buckets.setdefault(evaluation.question.template, []).append(evaluation)
    rows = []
    for template, members in buckets.items():
        scores = [member.scores["geval"] for member in members]
        rows.append(
            (
                sum(scores) / len(scores),
                [
                    template,
                    members[0].difficulty,
                    members[0].domain,
                    str(len(members)),
                    f"{sum(scores) / len(scores):.3f}",
                    f"{sum(1 for s in scores if s > 0.75) / len(scores) * 100:.0f}%",
                ],
            )
        )
    rows.sort(key=lambda pair: pair[0], reverse=not worst_first)
    header = ["template", "difficulty", "domain", "n", "mean G-Eval", ">0.75"]
    return "\n".join(
        [
            "Per-template breakdown" + (" (worst first)" if worst_first else ""),
            _render_table(header, [row for _, row in rows]),
        ]
    )


def stage_latency_table(report: EvaluationReport) -> str:
    """Per-stage pipeline latency summary over every evaluated question.

    Reads the ``stage_timings`` the pipeline records in each response's
    diagnostics; questions answered outside the pipeline (e.g. decomposed
    ones) simply contribute no samples.
    """
    header = ["stage", "n", "mean ms", "median ms", "min ms", "max ms", "total ms"]
    rows = []
    for stage in STAGE_KEYS:
        samples = [
            evaluation.diagnostics.get("stage_timings", {}).get(stage)
            for evaluation in report.evaluations
        ]
        samples = [value for value in samples if value is not None]
        if not samples:
            continue
        ordered = sorted(samples)
        rows.append(
            [
                stage,
                str(len(samples)),
                f"{sum(samples) / len(samples):.3f}",
                f"{ordered[len(ordered) // 2]:.3f}",
                f"{ordered[0]:.3f}",
                f"{ordered[-1]:.3f}",
                f"{sum(samples):.3f}",
            ]
        )
    return "\n".join(
        ["Per-stage pipeline latency (ms, wall clock)", _render_table(header, rows)]
    )


def report_to_csv(report: EvaluationReport) -> str:
    """Per-question CSV export of every score, label and stage latency."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["qid", "difficulty", "domain", "template", "retrieval_source",
         "used_fallback", *METRIC_KEYS, "human",
         *[f"t_{stage}_ms" for stage in STAGE_KEYS]]
    )
    for evaluation in report.evaluations:
        timings = evaluation.diagnostics.get("stage_timings", {}) or {}
        writer.writerow(
            [
                evaluation.question.qid,
                evaluation.difficulty,
                evaluation.domain,
                evaluation.question.template,
                evaluation.retrieval_source,
                evaluation.used_fallback,
                *[evaluation.scores[metric] for metric in METRIC_KEYS],
                evaluation.human_score if evaluation.human_score is not None else "",
                *[timings.get(stage, "") for stage in STAGE_KEYS],
            ]
        )
    return buffer.getvalue()
