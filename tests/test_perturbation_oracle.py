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

Metamorphic checks ride along.  Each rewrite below is a no-op, so it must
not change the outcome either:

* inserting ``WITH * WHERE true`` before the final ``RETURN`` of a gold
  query;
* swapping the comma-separated parts of a multi-part ``MATCH``;
* swapping the endpoints of a single undirected hop that forms a whole
  pattern part (``(a)-[r]-(b)`` to ``(b)-[r]-(a)``).
"""

from __future__ import annotations

import random

import pytest

from repro.cypher import CypherEngine, parse, render_value
from repro.cypher.errors import CypherError
from repro.cypher.lexer import tokenize
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


_OPEN = {"LPAREN", "LBRACKET", "LBRACE"}
_CLOSE = {"RPAREN", "RBRACKET", "RBRACE"}


def _match_patterns(query):
    """Source spans of each MATCH clause's comma-separated pattern parts.

    Yields one list of ``(start, end)`` offsets per MATCH, in query order.
    A pattern ends at the first keyword or end of input outside brackets.
    """
    tokens = tokenize(query)
    for index, token in enumerate(tokens):
        if not token.is_keyword("MATCH"):
            continue
        parts, start, depth = [], None, 0
        for follower in tokens[index + 1:]:
            if start is None:
                start = follower.position
            if follower.kind in _OPEN:
                depth += 1
            elif follower.kind in _CLOSE:
                depth -= 1
            elif depth == 0 and follower.kind in ("COMMA", "KEYWORD", "EOF"):
                parts.append((start, len(query[:follower.position].rstrip())))
                if follower.kind != "COMMA":
                    break
                start = None
        yield parts


def _replace_spans(query, replacements):
    """``query`` with each ``(start, end) -> text`` replacement applied."""
    for (start, end), text in sorted(replacements.items(), reverse=True):
        query = f"{query[:start]}{text}{query[end:]}"
    return query


def _swap_match_parts(query):
    """Every multi-part MATCH with its pattern parts in reverse order."""
    replacements = {}
    for spans in _match_patterns(query):
        if len(spans) > 1:
            texts = [query[start:end] for start, end in spans]
            replacements[(spans[0][0], spans[-1][1])] = ", ".join(reversed(texts))
    return _replace_spans(query, replacements) if replacements else None


def _swap_undirected_endpoints(query):
    """Every whole-part single undirected hop ``(a)-[r]-(b)`` as ``(b)-[r]-(a)``."""
    replacements = {}
    for spans in _match_patterns(query):
        for start, end in spans:
            tokens = tokenize(query[start:end])[:-1]
            kinds = [token.kind for token in tokens]
            if kinds[0] != "LPAREN" or "ARROW_LEFT" in kinds or "ARROW_RIGHT" in kinds:
                continue
            if "STAR" in kinds or kinds.count("LPAREN") != 2:
                continue  # var-length hops bind their rels in path order
            first_end = kinds.index("RPAREN") + 1
            second_start = len(kinds) - 1 - kinds[::-1].index("LPAREN")
            if kinds[first_end] != "MINUS" or kinds[second_start - 1] != "MINUS":
                continue
            hop = start + tokens[first_end].position
            far = start + tokens[second_start].position
            replacements[(start, end)] = query[far:end] + query[hop:far] + query[start:hop]
    return _replace_spans(query, replacements) if replacements else None


def _parses(query):
    try:
        parse(query)
    except CypherError:
        return False
    return True


@pytest.mark.parametrize("rewrite", [_swap_match_parts, _swap_undirected_endpoints])
def test_pattern_rewrites_are_no_ops(small_store, perturbed_queries, rewrite):
    engine = CypherEngine(small_store)
    corpus = {}
    for query in perturbed_queries:
        if _parses(query):
            rewritten = rewrite(query)
            if rewritten is not None and rewritten != query:
                corpus[query] = rewritten
    assert corpus, f"{rewrite.__name__} found nothing to rewrite; generator regressed"
    mismatches = []
    for query, rewritten in corpus.items():
        expected = _outcome(query, engine.execute)
        actual = _outcome(rewritten, engine.execute)
        if actual != expected:
            mismatches.append((query, rewritten, expected, actual))
    assert not mismatches, f"{len(mismatches)} rewrites diverged; first: {mismatches[0]}"

