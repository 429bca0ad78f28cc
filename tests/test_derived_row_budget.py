"""The row budget derived from the graph's size.

Every generated query, and every ``POST /cypher`` query, runs under
``2 x (nodes + relationships) + 10,000`` charged units.  The CypherEval
translations stay far below it, while an exploding variable-length
translation stops at exactly that count on any host and answers through the
vector fallback.  The budget oracle runs every text of the perturbation
corpus and of the parse golden's hand list under it with no deadline: each
must return rows or raise a :class:`CypherError` within 2 s.
"""

from __future__ import annotations

import time

import pytest

from repro.core import ChatIYP, ChatIYPConfig
from repro.cypher import CypherEngine, CypherError
from repro.eval.cyphereval import build_cyphereval
from repro.faults import FaultPlan, FaultSpec, activated
from repro.iyp import IYPConfig, generate_iyp
from repro.rag.text2cypher_retriever import (
    ROW_BUDGET_FLOOR,
    ROW_BUDGET_PER_ELEMENT,
    derived_row_budget,
)
from tests.test_parse_golden import HAND

#: what ``python -m repro.server --serve --deadline-ms 1000`` configures
SERVED = {"deadline_ms": 1000.0, "breaker_failure_threshold": 5}
#: a translation whose work grows with degree^6: unbounded, it runs past a
#: 1 s deadline after hundreds of thousands of rows on every graph size
EXPLOSIVE = "MATCH (a:AS)-[:PEERS_WITH*1..6]-(b) RETURN count(*)"


def derived_budget(store) -> int:
    return (
        ROW_BUDGET_PER_ELEMENT * (store.node_count + store.relationship_count)
        + ROW_BUDGET_FLOOR
    )


def served_chat(dataset, size: str) -> ChatIYP:
    return ChatIYP(dataset=dataset, config=ChatIYPConfig(dataset_size=size, **SERVED))


def test_budget_formula_on_the_small_graph(small_dataset):
    # 729 nodes + 2,061 relationships.
    assert derived_budget(small_dataset.store) == 15_580


def test_cyphereval_translations_stay_under_the_budget(small_dataset):
    chat = served_chat(small_dataset, "small")
    questions = build_cyphereval(small_dataset, seed=7)
    assert len(questions) == 381
    kinds = [
        (chat.ask(question.question).diagnostics.get("error_class") or {}).get("kind")
        for question in questions
    ]
    assert "resource_exhausted" not in kinds


@pytest.mark.parametrize(
    "size", ["small", "medium", pytest.param("large", marks=pytest.mark.slow)]
)
def test_explosive_translation_stops_at_the_budget(small_dataset, size):
    dataset = (
        small_dataset if size == "small" else generate_iyp(getattr(IYPConfig, size)(seed=42))
    )
    chat = served_chat(dataset, size)
    plan = FaultPlan(
        specs=(FaultSpec(site="llm.text2cypher", kind="garbage", payload=EXPLOSIVE),)
    )
    with activated(plan):
        response = chat.ask(f"Which country is AS{dataset.asns[0]} registered in?")
    diagnostics = response.diagnostics
    assert response.cypher == EXPLOSIVE
    assert response.used_fallback
    assert response.retrieval_source == "vector"
    assert diagnostics["error_class"]["kind"] == "resource_exhausted"
    assert f"row budget ({derived_budget(dataset.store)} rows)" in diagnostics["symbolic_error"]
    # Stopped by the row count, not the clock: nothing was degraded.
    assert not diagnostics.get("degraded")


def _writes(engine: CypherEngine, text: str) -> bool:
    try:
        return not engine.is_read_only(text)
    except CypherError:
        return False


def test_budget_oracle_bounds_every_corpus_text(small_store, perturbed_queries):
    engine = CypherEngine(small_store)
    budget = derived_row_budget(small_store)
    assert budget == derived_budget(small_store)
    slow = []
    for text in [*perturbed_queries, *HAND]:
        # A write runs on a fresh copy of the small graph.
        runner = engine
        if _writes(engine, text):
            runner = CypherEngine(generate_iyp(IYPConfig.small(seed=42)).store)
        started = time.perf_counter()
        try:
            runner.execute(text, row_budget=budget)
        except CypherError:
            pass
        elapsed = time.perf_counter() - started
        if elapsed > 2.0:
            slow.append((round(elapsed, 2), text))
    assert not slow, f"{len(slow)} texts ran past 2 s under the budget; first: {slow[0]}"
