"""Pins of the simulated backbone's serving heads: text2cypher, rerank, answer.

Two kinds of pin:

* ``tests/golden/simulator_digest.json`` holds sha256 digests of
  ``(task, text, metadata)`` for every ``complete`` call a small-graph
  CypherEval sweep (seed 7) makes, and for the text-to-Cypher head's reply
  to every gold question of seeds 7-9 plus hand-written texts.  A
  speed-up of a head must leave both unchanged.  Regenerate only for an
  intended change of outputs::

      python -m pytest tests/test_simulator_pins.py -q --golden-update

* ``reference_*`` oracles: the straightforward implementations of prompt
  sectioning, keyword matching, entity extraction and relevance scoring.
  The heads' implementations must agree with them on the sweep's texts,
  on hand texts and on hypothesis-generated ones; scores bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChatIYP, ChatIYPConfig, text2cypher_prompt
from repro.embed import HashingEmbedding
from repro.embed.model import _stable_bucket
from repro.eval import build_cyphereval
from repro.llm import SimulatedLLM
from repro.llm.simulated import _sections
from repro.llm.text2cypher import INTENTS, _keywords_in, _matched_keywords
from repro.nlp.entities import EntityExtractor, ExtractedEntities, Gazetteer
from repro.nlp.ngrams import char_ngrams
from repro.nlp.tokenize import STOPWORDS, word_tokenize

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "simulator_digest.json"

HAND_TEXTS = [
    "Which AS originates 203.0.113.0/24?",
    "What is the as-path from AS2497 to AS15169?",
    "Which IP addresses does example.com resolve to?",
    "How many members does DE-CIX Frankfurt have?",
    "How many members does de-cix frankfurt have?",
    "Which ASes are members of DE-CIX?",
    "What share of the population of Japan does AS2497 serve?",
    "Which networks are registered in JP?",
    "Which networks are registered in the United States of America?",
    "Is AS-2497 the same as ASN 2497 or as 2497?",
    "Top 5 domains by rank",
    "Which ASes depend on AS2914 with hegemony above 0.25?",
    "IPv6 prefix 2001:db8::/32 and 198.51.100.7",
    "Which organization manages AS13335 (tagged as Content)?",
    "known as? named! called... the number-of prefixes",
    "how many",
    "",
    "   ",
    "please sing a sea shanty",
    "Ärger über AS2497 — naïve café in Zürich",
    "AS2497AS15169 as2497 as 2497as",
]


# ---------------------------------------------------------------------------
# Reference oracles
# ---------------------------------------------------------------------------

_REFERENCE_SECTION_RE = re.compile(
    r"^\[(\w+)\]\n(.*?)(?=^\[\w+\]|\Z)", re.MULTILINE | re.DOTALL)


def reference_sections(prompt: str) -> dict[str, str]:
    """``[SECTION]\\n...`` blocks: one lazy match per header line."""
    return {name.lower(): body.strip()
            for name, body in _REFERENCE_SECTION_RE.findall(prompt)}


def reference_match_keyword(text: str, keyword: str) -> bool:
    """A multi-word keyword is a substring; a word matches between word boundaries."""
    if " " in keyword:
        return keyword in text
    return re.search(rf"\b{re.escape(keyword)}\b", text) is not None


def reference_matched_keywords(text: str, groups) -> list[str] | None:
    """For each group, the matched synonyms; None when any group misses."""
    matched: list[str] = []
    for group in groups:
        hits = [keyword for keyword in group if reference_match_keyword(text, keyword)]
        if not hits:
            return None
        matched.extend(hits)
    return matched


_ASN_RE = re.compile(r"\bas[\s\-]?(\d{1,7})\b|\basn[\s:]*(\d{1,7})\b", re.IGNORECASE)
_PREFIX_RE = re.compile(r"\b(\d{1,3}(?:\.\d{1,3}){3}/\d{1,2})\b")
_PREFIX6_RE = re.compile(r"\b([0-9a-f]{1,4}(?::[0-9a-f]{0,4}){1,7}/\d{1,3})", re.IGNORECASE)
_IP_RE = re.compile(r"\b(\d{1,3}(?:\.\d{1,3}){3})\b(?!/)")
_DOMAIN_RE = re.compile(
    r"\b((?:[a-z0-9][a-z0-9\-]*\.)+(?:com|net|org|io|jp|de|fr|in|br|uk|co\.uk))\b",
    re.IGNORECASE,
)
_NUMBER_RE = re.compile(r"\b(\d+(?:\.\d+)?)\b")


def reference_extract(gazetteer: Gazetteer, text: str) -> ExtractedEntities:
    """Entity extraction that sorts and lowers the gazetteer per question."""
    entities = ExtractedEntities()
    consumed: list[tuple[int, int]] = []
    for match in _ASN_RE.finditer(text):
        asn = int(match.group(1) or match.group(2))
        if asn not in entities.asns:
            entities.asns.append(asn)
        consumed.append(match.span())
    for match in _PREFIX_RE.finditer(text):
        if match.group(1) not in entities.prefixes:
            entities.prefixes.append(match.group(1))
        consumed.append(match.span())
    for match in _PREFIX6_RE.finditer(text):
        prefix = match.group(1).lower()
        if prefix not in entities.prefixes:
            entities.prefixes.append(prefix)
        consumed.append(match.span())
    for match in _IP_RE.finditer(text):
        if any(start <= match.start() < end for start, end in consumed):
            continue
        if match.group(1) not in entities.ips:
            entities.ips.append(match.group(1))
        consumed.append(match.span())
    for match in _DOMAIN_RE.finditer(text):
        domain = match.group(1).lower()
        if domain not in entities.domains:
            entities.domains.append(domain)
        consumed.append(match.span())

    lowered = text.lower()
    for attribute, phrases in (("ixps", gazetteer.ixps), ("tags", gazetteer.tags),
                               ("rankings", gazetteer.rankings),
                               ("organizations", gazetteer.organizations)):
        found = getattr(entities, attribute)
        for phrase in sorted(phrases, key=len, reverse=True):
            index = lowered.find(phrase.lower())
            if index == -1:
                continue
            span = (index, index + len(phrase))
            if any(start < span[1] and span[0] < end for start, end in consumed):
                continue
            if phrase not in found:
                found.append(phrase)
            consumed.append(span)

    for name, code in sorted(gazetteer.countries.items(), key=lambda kv: len(kv[0]),
                             reverse=True):
        if len(name) > 3 and name in lowered and code not in entities.countries:
            entities.countries.append(code)
    for match in re.finditer(r"\b[A-Z]{2}\b", text):
        code = gazetteer.countries.get(match.group(0).lower())
        if code and code not in entities.countries:
            entities.countries.append(code)

    for match in _NUMBER_RE.finditer(text):
        if any(start <= match.start() < end for start, end in consumed):
            continue
        value = float(match.group(1))
        entities.numbers.append(int(value) if value.is_integer() else value)
    return entities


def reference_token_f1(candidate: list[str], reference: list[str]) -> float:
    """Bag-of-words F1 of two token lists."""
    if not candidate and not reference:
        return 1.0
    if not candidate or not reference:
        return 0.0
    overlap = sum((Counter(candidate) & Counter(reference)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(candidate)
    recall = overlap / len(reference)
    return 2 * precision * recall / (precision + recall)


def reference_embed_tokens(embedding: HashingEmbedding, tokens: list[str]) -> np.ndarray:
    """Hashed features summed one at a time into a Python list: every token's
    word bucket and char trigrams, then every bigram; then unit norm."""
    dim = embedding.dim
    sums = [0.0] * dim
    for token in tokens:
        index, sign = _stable_bucket(token, dim, "word")
        sums[index] += sign
        for gram in char_ngrams(token, 3):
            index, sign = _stable_bucket(gram, dim, "char")
            sums[index] += sign * embedding.char_weight
    for left, right in zip(tokens, tokens[1:]):
        index, sign = _stable_bucket(f"{left}_{right}", dim, "bigram")
        sums[index] += sign * 0.7
    vector = np.array(sums, dtype=np.float64)
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector /= norm
    return vector


def reference_cosine(left: np.ndarray, right: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector is all-zero."""
    norm_left = float(np.linalg.norm(left))
    norm_right = float(np.linalg.norm(right))
    if norm_left == 0.0 or norm_right == 0.0:
        return 0.0
    return float(np.dot(left, right) / (norm_left * norm_right))


def reference_score_many(embedding: HashingEmbedding, query: str,
                         passages: list[str]) -> list[float]:
    """Relevance in [0, 10]: each passage embedded and compared on its own."""
    query_tokens = word_tokenize(query)
    query_content = [t for t in query_tokens if t not in STOPWORDS]
    query_vector = reference_embed_tokens(embedding, query_tokens)
    scores = []
    for passage in passages:
        if not passage.strip():
            scores.append(0.0)
            continue
        passage_tokens = word_tokenize(passage)
        semantic = max(0.0, reference_cosine(
            query_vector, reference_embed_tokens(embedding, passage_tokens)))
        if query_content:
            present = set(passage_tokens)
            lexical = sum(1 for t in query_content if t in present) / len(query_content)
        else:
            lexical = 0.0
        overlap_f1 = reference_token_f1(passage_tokens, query_tokens)
        blended = 0.45 * semantic + 0.40 * lexical + 0.15 * overlap_f1
        scores.append(round(10.0 * min(1.0, blended), 3))
    return scores


def _bits(scores) -> list[str]:
    return [float(score).hex() for score in scores]


def _normalized(text: str) -> str:
    """The question as the text-to-Cypher head matches keywords in it."""
    return " " + " ".join(word_tokenize(text)) + " "


def matched_keywords(text: str, groups) -> list[str] | None:
    """The head's keyword matching of ``text`` against ``groups``."""
    return _matched_keywords(_keywords_in(_normalized(text)), groups)


# ---------------------------------------------------------------------------
# Golden digest
# ---------------------------------------------------------------------------

def _digest(replies) -> str:
    blob = json.dumps([[task, reply.text, reply.metadata] for task, reply in replies],
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def sweep(small_dataset):
    """(prompt, task, reply) of every ``complete`` call of a seed-7 small
    CypherEval sweep, and the system that made them."""
    bot = ChatIYP(dataset=small_dataset, config=ChatIYPConfig(dataset_size="small"))
    complete = bot.llm.complete
    calls = []

    def recorded(prompt):
        reply = complete(prompt)
        calls.append((prompt, reply.metadata.get("task"), reply))
        return reply

    bot.llm.complete = recorded
    for question in build_cyphereval(small_dataset, seed=7):
        bot.ask(question.question)
    bot.llm.complete = complete
    return bot, calls


@pytest.fixture(scope="module")
def questions(small_dataset):
    """The gold questions of seeds 7-9, then the hand texts."""
    texts = [item.question for seed in (7, 8, 9)
             for item in build_cyphereval(small_dataset, seed=seed)]
    return texts + HAND_TEXTS


class TestGolden:
    def test_digest_matches_golden(self, request, sweep, questions):
        bot, calls = sweep
        digest = {
            "sweep_calls": len(calls),
            "sweep_tasks": dict(sorted(Counter(task for _, task, _ in calls).items())),
            "sweep": _digest((task, reply) for _, task, reply in calls),
            "text2cypher_questions": len(questions),
            "text2cypher": _digest(
                ("text2cypher", bot.llm.complete(text2cypher_prompt(q, bot.schema_text)))
                for q in questions),
        }
        if request.config.getoption("--golden-update", default=False):
            GOLDEN_PATH.write_text(json.dumps(digest, indent=2) + "\n")
            pytest.skip("golden regenerated")
        assert digest == json.loads(GOLDEN_PATH.read_text()), (
            "simulated backbone outputs drifted: regenerate with --golden-update only "
            "for an intended change of outputs"
        )

    def test_sweep_exercises_every_serving_head(self, sweep):
        _, calls = sweep
        tasks = Counter(task for _, task, _ in calls)
        assert tasks["text2cypher"] >= 300 and tasks["rerank"] >= 100
        assert tasks["answer"] == tasks["text2cypher"]
        modes = Counter(reply.metadata.get("mode") for _, task, reply in calls
                        if task == "answer")
        assert modes["structured"] > 0 and modes["context"] > 0


# ---------------------------------------------------------------------------
# Oracles on the sweep's and hand-written texts
# ---------------------------------------------------------------------------

class TestSections:
    def test_sweep_prompts(self, sweep):
        _, calls = sweep
        for prompt, _, _ in calls:
            assert _sections(prompt) == reference_sections(prompt)

    @pytest.mark.parametrize("prompt", [
        "",
        "[QUESTION]",
        "[QUESTION]\n",
        "[QUESTION]\nwhat\n[RESULT]",
        "[A]\n[A]\nsecond",
        "[A]\nfirst\n[a]\nsecond\n[A]\n",
        "[A]\nkept\n[x] y\ndropped\n[B]\nb",
        "[A]\nkept\n[TASK: answer]\nkept too\n",
        "[A]\r\nx\n [B]\ny\n[C] \nz",
        "[ÄB]\nnon-ASCII\n[名前]\n値\n[a_1]\n",
        "preamble\n[A]\n\n\n  body  \n\n",
        "[A][B]\nx\n[]\ny\n[A B]\nz",
    ])
    def test_hand_prompts(self, prompt):
        assert _sections(prompt) == reference_sections(prompt)


class TestKeywords:
    def test_single_word_keywords_are_alphanumeric(self):
        keywords = {keyword for intent in INTENTS for group in intent.groups
                    for keyword in group}
        for keyword in keywords:
            assert " " in keyword or re.fullmatch(r"[a-z0-9]+", keyword), keyword

    def test_questions(self, questions):
        for text in questions:
            normalized = _normalized(text)
            for intent in INTENTS:
                assert matched_keywords(text, intent.groups) == reference_matched_keywords(
                    normalized, intent.groups), (text, intent.name)


class TestExtract:
    def test_questions(self, small_dataset, questions):
        gazetteer = Gazetteer.from_dataset(small_dataset)
        extractor = EntityExtractor(gazetteer)
        for text in questions:
            assert repr(asdict(extractor.extract(text))) == repr(
                asdict(reference_extract(gazetteer, text))), text

    def test_empty_gazetteer(self):
        for text in HAND_TEXTS:
            assert repr(asdict(EntityExtractor().extract(text))) == repr(
                asdict(reference_extract(Gazetteer(), text)))


class TestScores:
    def test_sweep_reranks(self, sweep):
        bot, calls = sweep
        embedding = bot.llm.embedding
        for prompt, task, reply in calls:
            if task != "rerank":
                continue
            sections = reference_sections(prompt)
            passages = [str(passage) for passage in json.loads(sections["passages"])]
            expected = reference_score_many(embedding, sections["query"], passages)
            assert _bits(reply.metadata["scores"]) == _bits(expected)

    def test_sweep_embeddings(self, sweep):
        bot, calls = sweep
        embedding = bot.llm.embedding
        for prompt, task, _ in calls:
            if task != "rerank":
                continue
            sections = reference_sections(prompt)
            for text in [sections["query"], *json.loads(sections["passages"])]:
                tokens = word_tokenize(text)
                assert embedding.embed_tokens(tokens).tobytes() == reference_embed_tokens(
                    embedding, tokens).tobytes(), text

    def test_hand_passages(self):
        scorer = SimulatedLLM().scorer
        passages = HAND_TEXTS + ["!!!", "the of a", "AS2497 AS2497 as2497"]
        for query in HAND_TEXTS + ["the of a", "!!!"]:
            assert _bits(scorer.score_many(query, passages)) == _bits(
                reference_score_many(scorer.embedding, query, passages)), query


# ---------------------------------------------------------------------------
# Oracles on hypothesis-generated texts
# ---------------------------------------------------------------------------

_NAMES = st.sampled_from(["QUESTION", "question", "Result", "CONTEXT", "QUERY",
                          "PASSAGES", "A", "x", "ÄB", "名前", "a_1", "9"])
_LINES = st.one_of(
    st.builds("[{}]".format, _NAMES),  # a header when a newline follows
    st.builds("[{}]{}".format, _NAMES, st.sampled_from([" y", "y", ":", "]", " [A]", "\t"])),
    st.builds("[TASK: {}]".format, st.sampled_from(["answer", "rerank", "text2cypher", ""])),
    st.builds(" [{}]".format, _NAMES),
    st.text(alphabet=" ab[]\t\r:é名\x0b", max_size=12),
    st.just(""),
)
_PROMPTS = st.one_of(
    st.builds(lambda lines, end: "\n".join(lines) + end,
              st.lists(_LINES, max_size=12), st.sampled_from(["", "\n", "\n\n", " "])),
    st.text(alphabet="[]\nAQé_: x", max_size=40),
)


@settings(max_examples=400, deadline=None)
@given(_PROMPTS)
def test_sections_match_reference(prompt):
    assert _sections(prompt) == reference_sections(prompt)


_FRAGMENTS = st.sampled_from([
    "how many", "number of", "as", "AS", "as-path", "ases", "AS2497", "asn 15169",
    "prefix", "prefixes.", "203.0.113.0/24", "2001:db8::/32", "10.0.0.1",
    "example.com", "www.example.co.uk", "DE-CIX", "DE-CIX Frankfurt", "de-cix",
    "JP", "US", "in", "Japan", "united states", "known as", "ip address", "peer",
    "peers", "peering", "top", "most", "0.25", "5", "rank", "tranco", "tag",
    "Content", "member", "members of", "ä", "naïve", "_", "-", "/", ".", "?", ",",
])
_QUESTIONS = st.builds(" ".join, st.lists(_FRAGMENTS, max_size=10)) | st.builds(
    "".join, st.lists(_FRAGMENTS, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_QUESTIONS)
def test_keywords_match_reference(text):
    normalized = _normalized(text)
    for intent in INTENTS:
        assert matched_keywords(text, intent.groups) == reference_matched_keywords(
            normalized, intent.groups)


@pytest.fixture(scope="module")
def small_gazetteer(small_dataset):
    return Gazetteer.from_dataset(small_dataset)


@settings(max_examples=200, deadline=None)
@given(text=_QUESTIONS)
def test_extract_matches_reference(small_gazetteer, text):
    assert repr(asdict(EntityExtractor(small_gazetteer).extract(text))) == repr(
        asdict(reference_extract(small_gazetteer, text)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["as", "AS2497", "a", "aaaa", "peers", "x.y/z", "é"]),
                max_size=12))
def test_embedding_matches_reference(words):
    embedding = HashingEmbedding()
    tokens = word_tokenize(" ".join(words))
    vector = embedding.embed_tokens(tokens)
    assert vector.dtype == np.float64 and vector.shape == (embedding.dim,)
    assert vector.tobytes() == reference_embed_tokens(embedding, tokens).tobytes()


@settings(max_examples=150, deadline=None)
@given(_QUESTIONS, st.lists(_QUESTIONS, max_size=6))
def test_scores_match_reference(query, passages):
    embedding = HashingEmbedding()
    assert _bits(SimulatedLLM(embedding=embedding).scorer.score_many(query, passages)) == _bits(
        reference_score_many(embedding, query, passages))
