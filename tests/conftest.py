"""Shared fixtures.

Heavy objects (datasets, ChatIYP instances) are session-scoped; tests must
treat them as read-only.  Tests that mutate graphs build their own stores.
"""

from __future__ import annotations

import random

import pytest

from repro.core import ChatIYP, ChatIYPConfig


def pytest_addoption(parser):
    parser.addoption(
        "--golden-update",
        action="store_true",
        default=False,
        help="regenerate golden determinism digests instead of comparing",
    )
from repro.cypher import CypherEngine
from repro.eval import build_cyphereval
from repro.graph import GraphStore
from repro.iyp import IYPConfig, generate_iyp
from repro.llm.text2cypher import TextToCypherModel
from repro.nlp.entities import Gazetteer


@pytest.fixture(scope="session")
def small_dataset():
    """The small synthetic IYP dataset (read-only)."""
    return generate_iyp(IYPConfig.small(seed=42))


@pytest.fixture(scope="session")
def small_store(small_dataset):
    """The small dataset's graph store (read-only)."""
    return small_dataset.store


PERTURBATIONS = ("wrong_reltype", "wrong_direction", "drop_filter", "wrong_entity")
SYNTAX_SEEDS = (0, 1, 2)


def perturbation_corpus(dataset, syntax_seeds=SYNTAX_SEEDS) -> list[str]:
    """Every seed-7 CypherEval gold query plus its perturbations (wrong
    relationship type, flipped direction, dropped filter, wrong entity,
    broken syntax for each of ``syntax_seeds``), deduplicated, in first-seen
    order."""
    model = TextToCypherModel(Gazetteer.from_dataset(dataset))
    queries: dict[str, None] = {}
    for question in build_cyphereval(dataset, seed=7, per_template=9):
        gold = question.gold_cypher
        entities = model.extractor.extract(question.question)
        queries[gold] = None
        for kind in PERTURBATIONS:
            perturb = getattr(model, f"_perturb_{kind}")
            mutated = perturb(gold, entities, random.Random(f"{kind}:{gold}"))
            if mutated is not None:
                queries[mutated] = None
        for seed in syntax_seeds:
            queries[model._break_syntax(gold, random.Random(seed))] = None
    return list(queries)


@pytest.fixture(scope="session")
def perturbed_queries(small_dataset):
    """:func:`perturbation_corpus` of the small dataset."""
    return perturbation_corpus(small_dataset)


@pytest.fixture(scope="session")
def small_engine(small_store):
    """A Cypher engine over the small store (read-only queries only)."""
    return CypherEngine(small_store)


@pytest.fixture(scope="session")
def chatiyp_small(small_dataset):
    """A ChatIYP instance over the small dataset (read-only)."""
    return ChatIYP(dataset=small_dataset, config=ChatIYPConfig(dataset_size="small"))


@pytest.fixture()
def tiny_store():
    """A fresh, tiny, hand-built graph for mutation and matching tests.

    Layout::

        (AS 2497 IIJ, JP) -COUNTRY-> (JP) ; -POPULATION{5.3}-> (JP)
        (AS 15169 GOOGLE, US) -COUNTRY-> (US)
        (AS 2497) -PEERS_WITH{rel:0}-> (AS 15169)
        (AS 2497) -ORIGINATE-> (Prefix 203.0.113.0/24)
    """
    store = GraphStore()
    iij = store.create_node(["AS"], {"asn": 2497, "name": "IIJ"})
    google = store.create_node(["AS"], {"asn": 15169, "name": "GOOGLE"})
    jp = store.create_node(["Country"], {"country_code": "JP", "name": "Japan"})
    us = store.create_node(["Country"], {"country_code": "US", "name": "United States"})
    prefix = store.create_node(["Prefix"], {"prefix": "203.0.113.0/24", "af": 4})
    store.create_relationship(iij.node_id, "COUNTRY", jp.node_id)
    store.create_relationship(iij.node_id, "POPULATION", jp.node_id, {"percent": 5.3})
    store.create_relationship(google.node_id, "COUNTRY", us.node_id)
    store.create_relationship(iij.node_id, "PEERS_WITH", google.node_id, {"rel": 0})
    store.create_relationship(iij.node_id, "ORIGINATE", prefix.node_id)
    return store


@pytest.fixture()
def tiny_engine(tiny_store):
    """Engine over the fresh tiny graph (safe to mutate)."""
    return CypherEngine(tiny_store)
