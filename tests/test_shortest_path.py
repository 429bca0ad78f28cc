"""Single-path ``shortestPath`` keeps one parent per node.

The differential test checks it against the all-paths enumeration it
replaced, which built every equal-length partial path and returned the
first one found.  The scaling guard runs a graph with 2^k equal shortest
paths, where that enumeration allocates memory exponential in k.
"""

from __future__ import annotations

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import CypherEngine
from repro.graph import GraphStore

TYPES = {"any": (), "R": ("R",), "R|S": ("R", "S")}
ARROWS = {"out": ("-", "->"), "in": ("<-", "-"), "both": ("-", "-")}


def enumerated_first_path(store, start, end, direction, types, props, min_hops, max_hops):
    """The first path of the all-paths BFS: every partial path, kept per node."""
    if min_hops == 0 and start == end:
        return [start], []
    frontier = {start: [([start], [])]}
    visited_depth = {start: 0}
    found = []
    depth = 0
    while frontier and depth < max_hops and not found:
        depth += 1
        next_frontier = {}
        for node_id, partials in frontier.items():
            for rel in store.adjacent_relationships(node_id, direction, types or None):
                if direction == "out" and rel.start_id != node_id:
                    continue
                if direction == "in" and rel.end_id != node_id:
                    continue
                if any(rel.properties.get(key) != value for key, value in props.items()):
                    continue
                other = rel.other_end(node_id)
                seen_at = visited_depth.get(other)
                if seen_at is not None and seen_at < depth:
                    continue
                visited_depth.setdefault(other, depth)
                extensions = [
                    (nodes + [other], rels + [rel.rel_id])
                    for nodes, rels in partials
                    if rel.rel_id not in rels
                ]
                if other == end and depth >= min_hops:
                    found.extend(extensions)
                else:
                    next_frontier.setdefault(other, []).extend(extensions)
        frontier = next_frontier
    return found[0] if found else None


def shortest_query(start, end, direction, types, props, min_hops, max_hops):
    left, right = ARROWS[direction]
    type_text = ":" + "|".join(types) if types else ""
    prop_text = " {w: %d}" % props["w"] if props else ""
    return (
        f"MATCH (a:N {{i: {start}}}), (b:N {{i: {end}}}) "
        f"MATCH p = shortestPath((a){left}[{type_text}*{min_hops}..{max_hops}{prop_text}]{right}(b)) "
        "RETURN [n IN nodes(p) | n.i] AS nodes, [r IN relationships(p) | id(r)] AS rels"
    )


@st.composite
def graphs_and_searches(draw):
    size = draw(st.integers(2, 8))
    edges = draw(st.lists(
        st.tuples(
            st.integers(0, size - 1),
            st.integers(0, size - 1),
            st.sampled_from("RS"),
            st.integers(0, 1),
        ),
        max_size=24,
    ))
    min_hops = draw(st.integers(0, 2))
    search = (
        draw(st.integers(0, size - 1)),
        draw(st.integers(0, size - 1)),
        draw(st.sampled_from(sorted(ARROWS))),
        TYPES[draw(st.sampled_from(sorted(TYPES)))],
        draw(st.sampled_from([{}, {"w": 1}])),
        min_hops,
        draw(st.integers(max(min_hops, 1), 5)),
    )
    return size, edges, search


@settings(max_examples=300, deadline=None)
@given(graphs_and_searches())
def test_first_path_matches_enumeration(case):
    size, edges, search = case
    store = GraphStore()
    for i in range(size):
        store.create_node(["N"], {"i": i})
    for start, end, rel_type, weight in edges:
        store.create_relationship(start, rel_type, end, {"w": weight})
    expected = enumerated_first_path(store, *search)
    result = CypherEngine(store).execute(shortest_query(*search))
    if expected is None:
        assert len(result) == 0
    else:
        assert [record.values() for record in result] == [[expected[0], expected[1]]]


def diamond_chain(k: int) -> GraphStore:
    """k diamonds in a row: 2^k equal shortest paths from node 0 to the last."""
    store = GraphStore()
    hub = store.create_node(["N"], {"i": 0})
    for j in range(k):
        upper = store.create_node(["M"], {"i": -2 * j - 1})
        lower = store.create_node(["M"], {"i": -2 * j - 2})
        nxt = store.create_node(["N"], {"i": j + 1})
        for middle in (upper, lower):
            store.create_relationship(hub.node_id, "R", middle.node_id)
            store.create_relationship(middle.node_id, "R", nxt.node_id)
        hub = nxt
    return store


def test_shortest_path_memory_is_linear_in_equal_paths():
    k = 14
    store = diamond_chain(k)
    query = (
        f"MATCH (a:N {{i: 0}}), (b:N {{i: {k}}}) "
        "MATCH p = shortestPath((a)-[:R*..40]->(b)) RETURN length(p) AS hops, "
        "[n IN nodes(p) | n.i] AS nodes"
    )
    engine = CypherEngine(store)
    engine.execute(query, {"_warm": 1})  # parse and plan outside the measurement
    tracemalloc.start()
    try:
        record = engine.execute(query, {"_execute": 1}).single()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record["hops"] == 2 * k
    # The first path takes each diamond's first-created (upper) side.
    assert record["nodes"][:3] == [0, -1, 1]
    # One parent per node is a few KB; the 2^14 partial paths the
    # enumeration held at the last levels were over 10 MB.
    assert peak < 1_000_000, peak
