"""Seeded input schedules for the end-to-end benchmark.

Every schedule is a pure function of the workload seed and the graph it
is drawn from, so two commits measured with the same seed see identical
questions, writes and arrival times.

Question sweeps are *stratified* on the CypherEval gold set: position
``i`` of every sweep keeps the template, the phrasing slot and the
translation outcome (exact, one of the error model's perturbation
classes, or untranslated) of gold question ``i``; the seed draws the
entities, and callers order the sweep.  A handful of outcome classes (a dropped filter
on a peer count or a shortest path) cost 100x the median ask, so letting
their count float from seed to seed would swing a run's throughput by
half.  On the graph the gold set was built on, a sweep whose seed equals
the gold seed is the gold set itself.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.eval import TEMPLATES, EvalQuestion, build_cyphereval
from repro.llm import CypherGeneration, ErrorModel, TextToCypherModel
from repro.nlp import Gazetteer

__all__ = [
    "GOLD_SEED",
    "Question",
    "gold_set",
    "translator",
    "outcome",
    "sweep",
    "write_batches",
    "poisson_arrivals",
    "zipf_draws",
]

#: CypherEval seed of the published gold set every sweep is stratified on
GOLD_SEED = 7
#: entity draws per position before the gold question itself is reused
_MAX_DRAWS = 400

_TEMPLATES = {template.name: template for template in TEMPLATES}


@dataclass(frozen=True)
class Question:
    """One benchmark question with its reference query and outcome class."""

    text: str
    template: str
    gold_cypher: str
    outcome: str


def gold_set(dataset) -> list[EvalQuestion]:
    """The CypherEval gold set the sweeps are stratified on."""
    return build_cyphereval(dataset, seed=GOLD_SEED)


def translator(dataset, config) -> Callable[[str], CypherGeneration]:
    """A text-to-Cypher head identical to the one ``ChatIYP(config)`` builds.

    Used only to classify candidate questions; the system under test
    never sees it.  Memoised: small entity pools redraw the same texts.
    """
    model = TextToCypherModel(
        Gazetteer.from_dataset(dataset),
        seed=config.seed,
        error_model=ErrorModel(
            base=config.error_base,
            slope=config.error_slope,
            power=config.error_power,
            syntax_share=config.syntax_error_share,
        ),
    )
    return functools.lru_cache(maxsize=None)(model.generate)


def outcome(generation: CypherGeneration) -> str:
    """Translation outcome class: perturbation kind, exact or untranslated."""
    if not generation.cypher:
        return "untranslated"
    return generation.perturbation or "exact"


def _phrasing_slot(question: EvalQuestion, n_phrasings: int) -> int:
    # build_cyphereval numbers a template's questions 00, 01, ... and picks
    # phrasing ``number % len(phrasings)``.
    return int(question.qid.rsplit("-", 1)[1]) % n_phrasings


def sweep(
    gold: list[EvalQuestion],
    dataset,
    translate: Callable[[str], CypherGeneration],
    seed: int,
    gold_graph: bool = True,
) -> list[Question]:
    """A twin of every gold question, drawn by ``seed`` from ``dataset``,
    in gold order.  ``gold_graph`` says ``dataset`` is the graph the gold
    set was built on; on any other graph every twin is drawn afresh."""
    rng = random.Random(seed)
    questions: list[Question] = []
    seen: set[str] = set()
    for item in gold:
        wanted = outcome(translate(item.question))
        picked: Optional[Question] = None
        if seed == GOLD_SEED and gold_graph:
            picked = Question(item.question, item.template, item.gold_cypher, wanted)
        else:
            template = _TEMPLATES[item.template]
            phrasing = template.phrasings[_phrasing_slot(item, len(template.phrasings))]
            for _ in range(_MAX_DRAWS):
                entities = template.sampler(dataset, rng)
                if entities is None:
                    break
                text = phrasing.format(**entities)
                if text not in seen and outcome(translate(text)) == wanted:
                    picked = Question(text, item.template, template.gold(entities), wanted)
                    break
        if picked is None or picked.text in seen:
            picked = Question(item.question, item.template, item.gold_cypher, wanted)
        seen.add(picked.text)
        questions.append(picked)
    return questions


def write_batches(dataset, seed: int, count: int) -> list[tuple[str, str]]:
    """``count`` write batches: a new originated prefix and an AS rename.

    Prefixes come from the 198.18.0.0/15 benchmarking range, so they never
    collide with generated address space.
    """
    rng = random.Random(f"writes:{seed}")
    batches = []
    for index in range(count):
        origin, renamed = rng.choice(dataset.asns), rng.choice(dataset.asns)
        prefix = f"198.18.{index // 256}.{index % 256}/32"
        batches.append(
            (
                f"MATCH (a:AS {{asn: {origin}}}) "
                f"CREATE (a)-[:ORIGINATE]->(:Prefix {{prefix: '{prefix}', af: 4}})",
                f"MATCH (a:AS {{asn: {renamed}}}) SET a.name = 'Bench Net {seed}-{index}'",
            )
        )
    return batches


def poisson_arrivals(seed: int, rate: float, seconds: float) -> list[float]:
    """Due times (s from start) of a Poisson process at ``rate`` per second."""
    rng = random.Random(f"arrivals:{seed}")
    due, times = 0.0, []
    while True:
        due += rng.expovariate(rate)
        if due >= seconds:
            return times
        times.append(due)


def zipf_draws(seed: int, count: int, population: int, s: float) -> list[int]:
    """``count`` indices into ``range(population)``, rank ``r`` with weight r^-s.

    Rank 0 is index 0: callers lay their pool out in popularity order.  A
    longer draw extends a shorter one with the same seed.
    """
    rng = random.Random(f"zipf:{seed}")
    weights = [1.0 / (rank + 1) ** s for rank in range(population)]
    return rng.choices(range(population), weights=weights, k=count)
