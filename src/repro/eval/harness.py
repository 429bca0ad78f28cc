"""End-to-end evaluation harness.

Runs ChatIYP over the CypherEval questions, builds validation-model
references, and scores every answer with the four metrics of the paper
(BLEU, ROUGE, BERTScore, G-Eval).  The resulting
:class:`EvaluationReport` feeds the Figure 2a / 2b benchmarks and the
finding analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..core.chatiyp import ChatIYP
from .cyphereval import EvalQuestion, build_cyphereval
from .metrics.bertscore import BertScorer
from .metrics.bleu import sentence_bleu
from .metrics.geval import GEvalMetric
from .metrics.rouge import rouge_all
from .reference import Reference, ValidationModel

__all__ = ["QuestionEvaluation", "EvaluationReport", "EvaluationHarness"]

METRIC_KEYS = ("bleu", "rouge1", "rouge2", "rougeL", "bertscore", "geval")


@dataclass
class QuestionEvaluation:
    """All scores and provenance for one evaluated question."""

    question: EvalQuestion
    answer: str
    reference: str
    cypher: Optional[str]
    retrieval_source: str
    used_fallback: bool
    gold_empty: bool
    gold_facts: set[str] = field(default_factory=set)
    scores: dict[str, float] = field(default_factory=dict)
    geval_breakdown: dict[str, float] = field(default_factory=dict)
    human_score: Optional[float] = None
    diagnostics: dict[str, Any] = field(default_factory=dict)

    @property
    def difficulty(self) -> str:
        return self.question.difficulty

    @property
    def domain(self) -> str:
        return self.question.domain


@dataclass
class EvaluationReport:
    """The harness output: per-question evaluations plus accessors."""

    evaluations: list[QuestionEvaluation]

    def __len__(self) -> int:
        return len(self.evaluations)

    def scores(self, metric: str) -> list[float]:
        """All per-question scores for ``metric`` (see METRIC_KEYS)."""
        return [evaluation.scores[metric] for evaluation in self.evaluations]

    def filter(
        self,
        difficulty: Optional[str] = None,
        domain: Optional[str] = None,
    ) -> "EvaluationReport":
        """Sub-report restricted by difficulty and/or domain."""
        selected = [
            evaluation
            for evaluation in self.evaluations
            if (difficulty is None or evaluation.difficulty == difficulty)
            and (domain is None or evaluation.domain == domain)
        ]
        return EvaluationReport(selected)

    def mean(self, metric: str) -> float:
        values = self.scores(metric)
        return sum(values) / len(values) if values else 0.0

    def fraction_above(self, metric: str, threshold: float) -> float:
        values = self.scores(metric)
        if not values:
            return 0.0
        return sum(1 for value in values if value > threshold) / len(values)

    def human_scores(self) -> list[float]:
        return [
            evaluation.human_score
            for evaluation in self.evaluations
            if evaluation.human_score is not None
        ]


class EvaluationHarness:
    """Wires ChatIYP, the validation model and all metrics together."""

    #: default seed of the reference verbalizer — far outside the backbone
    #: seed range so reference and candidate phrasing streams never
    #: coincide (they are different models in the paper's setup)
    REFERENCE_SEED = 7919

    def __init__(
        self,
        chatiyp: ChatIYP,
        questions: Optional[list[EvalQuestion]] = None,
        reference_seed: int = REFERENCE_SEED,
    ) -> None:
        self.chatiyp = chatiyp
        self.questions = questions if questions is not None else build_cyphereval(
            chatiyp.dataset
        )
        self.validation = ValidationModel(chatiyp.store, seed=reference_seed)
        self.bert_scorer = BertScorer()
        self.geval = GEvalMetric(chatiyp.llm)

    def run(
        self,
        limit: Optional[int] = None,
        subset: Optional[Iterable[EvalQuestion]] = None,
    ) -> EvaluationReport:
        """Evaluate (a subset of) the benchmark in order; returns the full report."""
        questions = list(subset) if subset is not None else self.questions
        if limit is not None:
            questions = questions[:limit]
        return EvaluationReport([self.evaluate_question(question) for question in questions])

    def evaluate(
        self,
        limit: Optional[int] = None,
        subset: Optional[Iterable[EvalQuestion]] = None,
    ) -> EvaluationReport:
        """Alias of :meth:`run` (the name used by the serving docs)."""
        return self.run(limit=limit, subset=subset)

    def evaluate_question(self, question: EvalQuestion) -> QuestionEvaluation:
        """Run one question through ChatIYP and score the answer."""
        reference = self.validation.reference_for(question)
        response = self.chatiyp.ask(question.question)
        return self.score_answer(question, response.answer, reference, response)

    def score_answer(
        self,
        question: EvalQuestion,
        answer: str,
        reference: Reference,
        response: Any = None,
    ) -> QuestionEvaluation:
        """Score an arbitrary answer text (used by ablations too)."""
        rouge_scores = rouge_all(answer, reference.answer)
        geval_score = self.geval.score(
            question.question, answer, reference.answer, reference.facts
        )
        scores = {
            "bleu": round(sentence_bleu(answer, reference.answer), 4),
            "rouge1": round(rouge_scores["rouge1"].f1, 4),
            "rouge2": round(rouge_scores["rouge2"].f1, 4),
            "rougeL": round(rouge_scores["rougeL"].f1, 4),
            "bertscore": round(self.bert_scorer.score(answer, reference.answer).f1, 4),
            "geval": geval_score.score,
        }
        return QuestionEvaluation(
            question=question,
            answer=answer,
            reference=reference.answer,
            cypher=getattr(response, "cypher", None),
            retrieval_source=getattr(response, "retrieval_source", "n/a"),
            used_fallback=getattr(response, "used_fallback", False),
            gold_empty=reference.is_empty,
            gold_facts=set(reference.facts),
            scores=scores,
            geval_breakdown={
                "factuality": geval_score.factuality,
                "relevance": geval_score.relevance,
                "informativeness": geval_score.informativeness,
                "rating": float(geval_score.rating),
            },
            diagnostics=dict(getattr(response, "diagnostics", {}) or {}),
        )
