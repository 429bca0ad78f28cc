"""The simulated backbone LLM.

``SimulatedLLM`` plays the role GPT-3.5-Turbo plays in the paper: one model
invoked through prompt text for every pipeline stage.  Prompts built by
:mod:`repro.core.prompts` carry explicit task markers; the model routes on
them:

* ``[TASK: text2cypher]`` → the semantic-parser head (:class:`TextToCypherModel`)
* ``[TASK: answer]``      → the verbalizer head, reading structured context
  (a JSON result payload or retrieved snippets) embedded in the prompt
* ``[TASK: rerank]``      → the shallow relevance scorer, one score per
  passage of the prompt's JSON ``[PASSAGES]`` list
* ``[TASK: judge]``       → the grounded answer judge

Everything is deterministic given the construction seed, and every
response's ``metadata`` carries the structured form of the output so that
callers (and tests) don't re-parse model text.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from ..cypher.result import Record, ResultSet
from ..embed.model import HashingEmbedding
from ..faults import fault_point
from ..nlp.entities import Gazetteer
from .base import LLM, CompletionResponse
from .judge import AnswerJudge
from .reranker_model import RelevanceScorer
from .text2cypher import ErrorModel, TextToCypherModel
from .verbalize import ResultVerbalizer

__all__ = ["SimulatedLLM"]

_TASK_RE = re.compile(r"\[TASK:\s*(\w+)\]")
#: a line that starts with ``[word]``; group 2 is set when a newline follows
#: it, i.e. the line is a section header.  The prompt is read with a newline
#: prepended, so every line start follows one and the scan is a search for
#: the literal ``\n[``.
_MARKER_RE = re.compile(r"\n\[(\w+)\](?=(\n)?)")


def _sections(prompt: str) -> dict[str, str]:
    """Parse ``[SECTION]\\n...`` blocks out of a prompt.

    A section runs from its header line to the next line that starts with
    ``[word]``, header or not; text after a line that is not a header is
    dropped until the next header, and a later duplicate header wins.
    """
    text = "\n" + prompt
    sections: dict[str, str] = {}
    name = start = None
    for marker in _MARKER_RE.finditer(text):
        if name is not None:
            sections[name] = text[start : marker.start()].strip()
        name = marker.group(1).lower() if marker.group(2) else None
        start = marker.end() + 1  # past a header's newline
    if name is not None:
        sections[name] = text[start:].strip()
    return sections


class SimulatedLLM(LLM):
    """Deterministic multi-head stand-in for the GPT-3.5 backbone."""

    def __init__(
        self,
        gazetteer: Optional[Gazetteer] = None,
        seed: int = 0,
        error_model: Optional[ErrorModel] = None,
        embedding: Optional[HashingEmbedding] = None,
    ) -> None:
        self.seed = seed
        self.embedding = embedding or HashingEmbedding()
        self.text2cypher = TextToCypherModel(gazetteer, seed=seed, error_model=error_model)
        self.verbalizer = ResultVerbalizer(seed=seed)
        self.scorer = RelevanceScorer(self.embedding)
        self.judge_model = AnswerJudge(self.embedding)

    @property
    def model_name(self) -> str:
        return f"simulated-gpt-iyp (seed={self.seed})"

    # ------------------------------------------------------------------
    # Generic prompt interface
    # ------------------------------------------------------------------

    def complete(self, prompt: str) -> CompletionResponse:
        """Route a marker-tagged prompt to the right head."""
        match = _TASK_RE.search(prompt)
        task = match.group(1).lower() if match else "answer"
        # Fault-injection site ("llm.<task>"): latency and transient/timeout
        # errors fire inside fault_point; a "garbage" action on the
        # translation head substitutes unparsable Cypher, which then fails
        # downstream exactly like an organic bad generation.
        action = fault_point(f"llm.{task}")
        if action is not None and action.kind == "garbage" and task == "text2cypher":
            garbage = action.payload or "MATCH (chaos. RETURN"
            return CompletionResponse(
                text=garbage,
                metadata={
                    "task": "text2cypher",
                    "cypher": garbage,
                    "confidence": 0.0,
                    "intent": "injected",
                    "perturbation": "injected_garbage",
                    "coverage": 0.0,
                },
            )
        sections = _sections(prompt)
        if task == "text2cypher":
            return self._complete_text2cypher(sections)
        if task == "answer":
            return self._complete_answer(sections)
        if task == "rerank":
            return self._complete_rerank(sections)
        if task == "judge":
            return self._complete_judge(sections)
        return CompletionResponse(
            text="I cannot handle this request.", metadata={"task": task, "error": "unknown task"}
        )

    # ------------------------------------------------------------------
    # Heads
    # ------------------------------------------------------------------

    def _complete_text2cypher(self, sections: dict[str, str]) -> CompletionResponse:
        question = sections.get("question", "")
        generation = self.text2cypher.generate(question)
        text = generation.cypher if generation.cypher else "UNABLE_TO_TRANSLATE"
        return CompletionResponse(
            text=text,
            metadata={
                "task": "text2cypher",
                "cypher": generation.cypher,
                "confidence": generation.confidence,
                "intent": generation.intent,
                "perturbation": generation.perturbation,
                "coverage": generation.coverage,
            },
        )

    def _complete_answer(self, sections: dict[str, str]) -> CompletionResponse:
        question = sections.get("question", "")
        result_json = sections.get("result", "")
        context = sections.get("context", "")
        if result_json:
            result = self._parse_result(result_json)
            if result is not None:
                text = self.verbalizer.verbalize(question, result)
                return CompletionResponse(
                    text=text, metadata={"task": "answer", "mode": "structured"}
                )
        snippets = [line.strip("- ").strip() for line in context.splitlines() if line.strip()]
        text = self.verbalizer.verbalize_context(question, snippets)
        return CompletionResponse(text=text, metadata={"task": "answer", "mode": "context"})

    def _complete_rerank(self, sections: dict[str, str]) -> CompletionResponse:
        query = sections.get("query", "")
        try:
            passages = json.loads(sections.get("passages", "[]"))
        except json.JSONDecodeError:
            passages = []
        if not isinstance(passages, list):
            passages = []
        scores = self.scorer.score_many(query, [str(passage) for passage in passages])
        return CompletionResponse(
            text="\n".join(f"{score}" for score in scores),
            metadata={"task": "rerank", "scores": scores},
        )

    def _complete_judge(self, sections: dict[str, str]) -> CompletionResponse:
        verdict = self.judge_model.judge(
            question=sections.get("question", ""),
            candidate=sections.get("candidate", ""),
            reference=sections.get("reference", ""),
            gold_facts=set(json.loads(sections["gold_facts"])) if "gold_facts" in sections else None,
        )
        return CompletionResponse(
            text=f"score: {verdict.score} rating: {verdict.rating}\n{verdict.rationale}",
            metadata={
                "task": "judge",
                "score": verdict.score,
                "rating": verdict.rating,
                "factuality": verdict.factuality,
                "relevance": verdict.relevance,
                "informativeness": verdict.informativeness,
            },
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _parse_result(result_json: str) -> Optional[ResultSet]:
        """Rebuild a ResultSet from the JSON payload embedded in a prompt."""
        try:
            payload = json.loads(result_json)
            keys = list(payload["keys"])
            records = [Record(keys, list(values)) for values in payload["rows"]]
            return ResultSet(keys, records)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None
