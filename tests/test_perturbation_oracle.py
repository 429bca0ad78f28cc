"""Perturbation oracle: planned and unplanned execution agree on LLM-shaped errors.

ChatIYP executes whatever Cypher the text-to-Cypher head produces, and that
head is wrong in characteristic ways (wrong relationship type, flipped
direction, dropped filter, wrong entity, broken syntax).  Every CypherEval
gold query and each of its perturbations runs three ways:

* the planned engine without a deadline,
* the same engine with a deadline (what served requests run),
* the unplanned engine (``planner=False``), the semantic reference.

All three must return the same keys and rows (in order under ``ORDER BY``,
as a multiset otherwise) or raise the same :class:`CypherError` class.

A metamorphic check rides along: inserting ``WITH * WHERE true`` before
the final ``RETURN`` of a gold query is a no-op rewrite, so it must not
change the outcome either.
"""

from __future__ import annotations

import random

import pytest

from repro.cypher import CypherEngine, render_value
from repro.cypher.errors import CypherError
from repro.eval import build_cyphereval
from repro.llm.text2cypher import TextToCypherModel
from repro.nlp.entities import Gazetteer
from repro.serving import Deadline

PERTURBATIONS = ("wrong_reltype", "wrong_direction", "drop_filter", "wrong_entity")
SYNTAX_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def perturbed_queries(small_dataset):
    """Every gold query plus its perturbations, deduplicated, in first-seen order."""
    model = TextToCypherModel(Gazetteer.from_dataset(small_dataset))
    queries: dict[str, None] = {}
    for question in build_cyphereval(small_dataset, seed=7, per_template=9):
        gold = question.gold_cypher
        entities = model.extractor.extract(question.question)
        queries[gold] = None
        for kind in PERTURBATIONS:
            perturb = getattr(model, f"_perturb_{kind}")
            mutated = perturb(gold, entities, random.Random(f"{kind}:{gold}"))
            if mutated is not None:
                queries[mutated] = None
        for seed in SYNTAX_SEEDS:
            queries[model._break_syntax(gold, random.Random(seed))] = None
    return list(queries)


def _outcome(query, run):
    try:
        result = run(query)
    except CypherError as exc:
        return ("error", type(exc).__name__)
    rows = [tuple(render_value(value) for value in record.values()) for record in result.records]
    if "ORDER BY" not in query.upper():
        rows.sort(key=repr)
    return ("ok", tuple(result.keys), rows)


def test_perturbed_queries_agree_across_execution_paths(small_store, perturbed_queries):
    engine = CypherEngine(small_store)
    unplanned = CypherEngine(small_store, planner=False)
    paths = {
        "planned": engine.execute,
        "planned/deadline": lambda q: engine.execute(q, deadline=Deadline.start(60000)),
        "no-planner": unplanned.execute,
    }
    assert len(perturbed_queries) > 1000, "perturbation set shrank; generator regressed"
    mismatches = []
    for query in perturbed_queries:
        outcomes = {label: _outcome(query, run) for label, run in paths.items()}
        if len({repr(outcome) for outcome in outcomes.values()}) > 1:
            mismatches.append((query, outcomes))
    assert not mismatches, f"{len(mismatches)} queries diverged; first: {mismatches[0]}"


def _with_star_passthrough(query):
    """``query`` with ``WITH * WHERE true`` before its final RETURN."""
    head, _, tail = query.rpartition("RETURN ")
    return f"{head}WITH * WHERE true RETURN {tail}"


def test_with_star_passthrough_is_a_no_op(small_dataset, small_store):
    engine = CypherEngine(small_store)
    golds = {
        question.gold_cypher: None
        for question in build_cyphereval(small_dataset, seed=7, per_template=9)
        if " UNION " not in question.gold_cypher.upper()
    }
    assert len(golds) > 300, "gold set shrank; generator regressed"
    mismatches = []
    for gold in golds:
        rewritten = _with_star_passthrough(gold)
        expected = _outcome(gold, engine.execute)
        actual = _outcome(rewritten, engine.execute)
        if actual != expected:
            mismatches.append((rewritten, expected, actual))
    assert not mismatches, f"{len(mismatches)} rewrites diverged; first: {mismatches[0]}"
