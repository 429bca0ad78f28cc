"""Pins and oracles for what a ChatIYP build derives from the graph before its first ask.

The vector index's matrix and entry ids, the node descriptions it embeds and
the schema text the text-to-Cypher prompt carries are pinned by sha256 for
the small and the medium graph, so a faster build must produce the same
bits.  Every matrix row must also be bitwise ``embed`` of its text: search
embeds the query with ``embed``, and rankings assume both sides agree.
``tobytes`` is compared rather than ``np.array_equal``, which equates -0.0
and 0.0.

A per-relationship node description and ``introspect_schema``, the
renderings the adjacency-index walks replaced, are kept here as reference
oracles and compared with them on hand-built and seeded random graphs; the
batch embedding's edge cases are each compared with a per-text ``embed``.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.embed import VectorStore
from repro.embed import model as embed_model
from repro.graph import GraphStore, introspect_schema
from repro.graph.schema import GraphSchema, SchemaRelationship
from repro.iyp import IYPConfig, generate_iyp
from repro.rag import build_description_corpus
from repro.rag.describe import _MAX_NEIGHBOURS_PER_PHRASE, _REL_PHRASES, _entity_name

#: size -> sha256 of (matrix bytes, entry ids, descriptions, schema text)
PINS = {
    "small": (
        "61b585f352833533c61db32c94e112b21b02f16363605155fc9af839a2134b2c",
        "6717445393e3ebb4b79bedb73783acbcd1c28d0dfd65565eb32f812f93754180",
        "33535d9f39b1e7373a2b6edd5bf6315dfa9e2089879b943bf90482bcfb360e65",
        "28a1b1a97873132a326fa94f523e57b76fa8ff0b5f336a060083963306d60155",
    ),
    "medium": (
        "cf7478db6602ecdc505e60e82a1a4bab9311fd062fd648c99f7451ccd856335b",
        "1161feacc2c47709d4176eb532bdd9cab1042a67057776f47910c5df699a842c",
        "722395a33daad68e00a1a98c7c2b826babe8bf8416b83b218f88840a62cfc855",
        "7857a4f3751f3212a5b417fe1bb4b6438eaedc0541c7b3c588c088b66c7531d0",
    ),
}
ROWS = {"small": 438, "medium": 2108}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module", params=sorted(PINS))
def build(request):
    """(size, store, description corpus, vector index) of one graph size."""
    size = request.param
    store = generate_iyp(getattr(IYPConfig, size)(seed=42)).store
    corpus = build_description_corpus(store)
    return size, store, corpus, VectorStore(corpus)


def test_corpus_matrix_is_pinned(build):
    size, _, _, index = build
    matrix = index._matrix
    assert matrix.shape == (ROWS[size], 256) and matrix.dtype == np.float64
    assert _sha256(matrix.tobytes()) == PINS[size][0]


def test_entry_ids_are_pinned(build):
    size, _, _, index = build
    ids = "\n".join(entry.entry_id for entry in index.entries())
    assert _sha256(ids.encode()) == PINS[size][1]


def test_descriptions_are_pinned(build):
    size, _, corpus, _ = build
    texts = "\n".join(text for _, text, _ in corpus)
    assert _sha256(texts.encode()) == PINS[size][2]


def test_schema_text_is_pinned(build):
    size, store, _, _ = build
    assert _sha256(introspect_schema(store).describe().encode()) == PINS[size][3]


def test_every_row_is_embed_of_its_text(build):
    _, _, _, index = build
    embed = index.embedding.embed
    for row, entry in enumerate(index.entries()):
        assert embed(entry.text).tobytes() == index._matrix[row].tobytes(), entry.entry_id


# ----------------------------------------------------------------------
# Reference oracles: the per-relationship renderings the adjacency-index
# walks replaced, kept to check them on hand-built graphs.
# ----------------------------------------------------------------------


def reference_describe_node(store, node) -> str:
    """A node's corpus description as one walk over its relationships in id order."""
    label = sorted(node.labels)[0]
    header = f"{_entity_name(node)} is a {label} node"
    if "Country" in node.labels and "name" in node.properties:
        header = (
            f"{node.properties['name']} ({node.properties.get('country_code', '')}) "
            "is a Country node"
        )
    phrases: list[str] = []
    grouped: dict[tuple[str, str], list[str]] = {}
    counts: Counter[tuple[str, str]] = Counter()
    for rel in store.adjacent_relationships(node.node_id):
        direction = "out" if rel.start_id == node.node_id else "in"
        key = (direction, rel.rel_type)
        if key not in _REL_PHRASES:
            continue
        counts[key] += 1
        if counts[key] > _MAX_NEIGHBOURS_PER_PHRASE:
            continue
        other = store.node(rel.other_end(node.node_id))
        grouped.setdefault(key, []).append(_entity_name(other))
    for key, names in grouped.items():
        extra = counts[key] - len(names)
        rendered = ", ".join(names) + (f" and {extra} more" if extra > 0 else "")
        phrases.append(_REL_PHRASES[key].format(rendered))
    if phrases:
        return header + "; " + "; ".join(phrases)
    return header


def reference_introspect_schema(store) -> GraphSchema:
    """``introspect_schema`` expanding every relationship to its label pairs."""
    schema = GraphSchema()
    label_property_keys: dict[str, set[str]] = defaultdict(set)
    for node in store.all_nodes():
        for label in node.labels:
            schema.node_labels[label] = schema.node_labels.get(label, 0) + 1
            label_property_keys[label].update(node.properties)
    schema.node_properties = {
        label: tuple(sorted(keys)) for label, keys in label_property_keys.items()
    }
    pattern_counts: Counter[tuple[str, str, str]] = Counter()
    pattern_props: dict[tuple[str, str, str], set[str]] = defaultdict(set)
    for rel in store.all_relationships():
        start = store.node(rel.start_id)
        end = store.node(rel.end_id)
        for start_label in sorted(start.labels):
            for end_label in sorted(end.labels):
                key = (start_label, rel.rel_type, end_label)
                pattern_counts[key] += 1
                pattern_props[key].update(rel.properties)
    schema.relationships = [
        SchemaRelationship(
            start_label=start,
            rel_type=rel_type,
            end_label=end,
            count=count,
            property_keys=tuple(sorted(pattern_props[(start, rel_type, end)])),
        )
        for (start, rel_type, end), count in sorted(pattern_counts.items())
    ]
    return schema


def _hand_store() -> GraphStore:
    """Self-loops, a multi-label node, unknown types, and a hub with more
    than four neighbours per phrase."""
    store = GraphStore()
    iij = store.create_node(["AS"], {"asn": 2497, "name": "IIJ"})
    google = store.create_node(["AS"], {"asn": 15169})
    jp = store.create_node(["Country"], {"country_code": "JP", "name": "Japan"})
    both = store.create_node(["IXP", "Organization"], {"name": "JPNAP"})
    bare = store.create_node(["Tag"], {})
    members = [store.create_node(["AS"], {"asn": 64500 + i}) for i in range(6)]
    store.create_relationship(iij.node_id, "PEERS_WITH", iij.node_id)  # self-loop
    store.create_relationship(iij.node_id, "COUNTRY", jp.node_id)
    store.create_relationship(google.node_id, "PEERS_WITH", iij.node_id, {"rel": 0})
    store.create_relationship(bare.node_id, "UNKNOWN_TYPE", iij.node_id, {"w": 1})
    store.create_relationship(iij.node_id, "UNKNOWN_TYPE", bare.node_id)
    store.create_relationship(both.node_id, "MANAGED_BY", both.node_id)  # self-loop
    store.create_relationship(both.node_id, "COUNTRY", jp.node_id, {"since": 2001})
    for member in members:
        store.create_relationship(member.node_id, "MEMBER_OF", both.node_id)
        store.create_relationship(member.node_id, "COUNTRY", jp.node_id)
    store.create_relationship(jp.node_id, "MANAGED_BY", both.node_id)
    store.create_relationship(both.node_id, "PART_OF", both.node_id)  # self-loop
    store.create_relationship(both.node_id, "PART_OF", jp.node_id)
    store.create_relationship(google.node_id, "DEPENDS_ON", iij.node_id)
    return store


def _random_store(seed: int) -> GraphStore:
    """A seeded random multigraph over phrase and non-phrase types, with
    multi-label nodes, self-loops, hubs, and properties set and removed
    after the build."""
    rng = random.Random(seed)
    labels = ["AS", "IXP", "Country", "Organization", "Prefix", "Tag"]
    types = sorted({rel_type for _, rel_type in _REL_PHRASES}) + ["ALIAS", "SIBLING_OF"]
    store = GraphStore()
    nodes = [
        store.create_node(rng.sample(labels, rng.choice((1, 1, 1, 2, 3))),
                          {"name": f"n{i}"} if rng.random() < 0.8 else {"asn": i})
        for i in range(40)
    ]
    hubs = nodes[:3]
    rels = []
    for _ in range(400):
        start = rng.choice(hubs) if rng.random() < 0.3 else rng.choice(nodes)
        end = start if rng.random() < 0.05 else rng.choice(hubs + nodes)
        properties = {rng.choice("abc"): 1} if rng.random() < 0.3 else {}
        rels.append(store.create_relationship(
            start.node_id, rng.choice(types), end.node_id, properties))
    for rel in rng.sample(rels, 60):
        store.set_relationship_property(rel.rel_id, rng.choice("abc"), rng.choice((None, 2)))
    for node in rng.sample(nodes[3:], 4):
        store.set_node_property(node.node_id, "name", None)
    return store


ORACLE_STORES = [("hand", _hand_store)] + [
    (f"random-{seed}", lambda seed=seed: _random_store(seed)) for seed in range(6)
]


def corpus_descriptions(store) -> dict[int, str]:
    """Node id -> description, from one corpus over every label of ``store``;
    a node listed under several labels must get one text."""
    labels = tuple(sorted({label for node in store.all_nodes() for label in node.labels}))
    texts: dict[int, str] = {}
    for _, text, metadata in build_description_corpus(store, labels=labels):
        assert texts.setdefault(metadata["graph_node_id"], text) == text
    return texts


@pytest.mark.parametrize("make", [make for _, make in ORACLE_STORES],
                         ids=[name for name, _ in ORACLE_STORES])
def test_describe_node_matches_reference(make):
    store = make()
    texts = corpus_descriptions(store)
    assert sorted(texts) == sorted(node.node_id for node in store.all_nodes())
    for node in store.all_nodes():
        assert texts[node.node_id] == reference_describe_node(store, node)


def test_hand_store_descriptions_cover_the_edge_cases():
    store = _hand_store()
    texts = corpus_descriptions(store)
    # the self-loop counts once, as outgoing; unknown types get no phrase
    assert texts[0] == (
        "AS2497 (IIJ) is a AS node; peers with AS2497 (IIJ); registered in Japan;"
        " peers with AS15169; depended on by AS15169"
    )
    assert "and 2 more" in texts[3]


@pytest.mark.parametrize("make", [make for _, make in ORACLE_STORES],
                         ids=[name for name, _ in ORACLE_STORES])
def test_introspect_schema_matches_reference(make):
    store = make()
    schema, reference = introspect_schema(store), reference_introspect_schema(store)
    assert schema.node_labels == reference.node_labels
    assert schema.node_properties == reference.node_properties
    assert schema.relationships == reference.relationships
    assert schema.describe() == reference.describe()


# ----------------------------------------------------------------------
# Batch embedding edge cases: every row is bitwise ``embed`` of its text.
# ----------------------------------------------------------------------


def _assert_rows_are_embed(texts: list[str]) -> VectorStore:
    index = VectorStore((f"d{i}", text, {}) for i, text in enumerate(texts))
    assert index._matrix.shape == (len(texts), index.embedding.dim)
    for row, text in enumerate(texts):
        assert index.embedding.embed(text).tobytes() == index._matrix[row].tobytes(), text
    return index


def test_empty_corpus():
    index = _assert_rows_are_embed([])
    assert index._matrix.shape == (0, 256)
    assert index.search("anything at all") == ([], [])


def test_document_without_word_tokens_stays_zero():
    index = _assert_rows_are_embed(["AS2497 is a AS node", "!!! --- ???", "", "Japan"])
    assert not index._matrix[1].any() and not index._matrix[2].any()


def test_one_token_and_repeated_token_documents():
    _assert_rows_are_embed(["japan", "japan japan japan", "as as as as as as as as",
                            "peers with peers with peers with", "x"])


@pytest.mark.parametrize("chunk_rows", [1, 3, 256])
def test_corpus_size_not_a_multiple_of_the_chunk(monkeypatch, chunk_rows):
    monkeypatch.setattr(embed_model, "_CHUNK_ROWS", chunk_rows)
    texts = [f"AS{64500 + i} peers with AS{64500 + i % 3}; member of JPNAP" for i in range(10)]
    texts[3] = ""  # an empty document on a chunk boundary at size 3
    texts += ["tokyo"] * (chunk_rows + 2)  # crosses the default chunk too
    _assert_rows_are_embed(texts)


def test_char_weight_and_dimension_are_honoured():
    texts = ["AS2497 originates 203.0.113.0/24", "registered in Japan", "member of DE-CIX"]
    for model in (embed_model.HashingEmbedding(dim=64, char_weight=0.3),
                  embed_model.HashingEmbedding(dim=17, char_weight=0.0)):
        index = VectorStore(((str(i), text, {}) for i, text in enumerate(texts)), model)
        for row, text in enumerate(texts):
            assert model.embed(text).tobytes() == index._matrix[row].tobytes()
