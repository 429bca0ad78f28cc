"""``shortestPath`` and ``allShortestPaths`` against a reference enumeration.

The search keeps, for each node it reaches, the edges into it from the
level that first reached it, and reads the paths back from the end node.
The differential tests check it against the all-paths enumeration it
replaced, which built every equal-length partial path: ``shortestPath``
returns that enumeration's first path, ``allShortestPaths`` every path in
its order.  The scaling guards run graphs with 2^k equal shortest paths,
where that enumeration allocates memory and charges rows exponential in k.
The endpoint guard checks that a WHERE-anchored search reads each endpoint
through its own planned lookup.
"""

from __future__ import annotations

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import CypherEngine
from repro.graph import GraphStore
from repro.iyp import IYPConfig, generate_iyp
from repro.rag.text2cypher_retriever import derived_row_budget

TYPES = {"any": (), "R": ("R",), "R|S": ("R", "S")}
ARROWS = {"out": ("-", "->"), "in": ("<-", "-"), "both": ("-", "-")}


def enumerated_paths(store, start, end, direction, types, props, min_hops, max_hops):
    """Every minimum-length path in the order the all-paths BFS finds them:
    every partial path, kept per node."""
    if min_hops == 0 and start == end:
        return [([start], [])]
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
    return found


def enumerated_first_path(store, *search):
    """The first path :func:`enumerated_paths` finds, or None."""
    found = enumerated_paths(store, *search)
    return found[0] if found else None


def shortest_query(start, end, direction, types, props, min_hops, max_hops,
                   function="shortestPath"):
    left, right = ARROWS[direction]
    type_text = ":" + "|".join(types) if types else ""
    prop_text = " {w: %d}" % props["w"] if props else ""
    return (
        f"MATCH (a:N {{i: {start}}}), (b:N {{i: {end}}}) "
        f"MATCH p = {function}((a){left}[{type_text}*{min_hops}..{max_hops}{prop_text}]{right}(b)) "
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


@settings(max_examples=300, deadline=None)
@given(graphs_and_searches())
def test_all_paths_match_enumeration_in_order(case):
    size, edges, search = case
    store = GraphStore()
    for i in range(size):
        store.create_node(["N"], {"i": i})
    for start, end, rel_type, weight in edges:
        store.create_relationship(start, rel_type, end, {"w": weight})
    expected = [[nodes, rels] for nodes, rels in enumerated_paths(store, *search)]
    result = CypherEngine(store).execute(shortest_query(*search, function="allShortestPaths"))
    assert [record.values() for record in result] == expected


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


def diamonds_beside_chain(k: int) -> GraphStore:
    """:func:`diamond_chain` plus a ``2k``-hop ``R`` chain from its first
    node to one ``:T`` node: one shortest path to ``:T``, found at the depth
    where the diamonds' last node is reached by 2^k equal paths."""
    store = diamond_chain(k)
    previous = next(node for node in store.nodes_by_label("N") if node["i"] == 0)
    for hop in range(2 * k):
        node = store.create_node(["T"] if hop == 2 * k - 1 else ["C"], {})
        store.create_relationship(previous.node_id, "R", node.node_id)
        previous = node
    return store


def test_all_shortest_paths_build_only_the_paths_to_the_end():
    """The all-paths enumeration charged every partial path through the
    diamonds, far past the derived budget, for one path to ``:T``."""
    store = diamonds_beside_chain(15)
    budget = derived_row_budget(store)
    assert budget == 10_332
    query = (
        "MATCH (a:N {i: 0}), (b:T) "
        "MATCH p = allShortestPaths((a)-[:R*..40]->(b)) RETURN length(p) AS hops"
    )
    result = CypherEngine(store).execute(query, row_budget=budget)
    assert [record.values() for record in result] == [[30]]


def test_where_anchored_endpoints_read_their_lookups():
    """Each endpoint reads its planned lookup.  The search used to scan the
    :AS label for each endpoint, the end once per start, and charged 892."""
    query = (
        "MATCH p = shortestPath((a:AS)-[:PEERS_WITH*..4]-(b:AS)) "
        "WHERE a.asn = 2497 AND b.asn = 15169 RETURN length(p) AS hops"
    )
    engine = CypherEngine(generate_iyp(IYPConfig.medium(seed=42)).store)
    assert ("ShortestPath(shortestPath, HashLookup(:AS.asn) to HashLookup(:AS.asn), "
            "pushed a.asn =, b.asn =)") in engine.explain(query)
    # two lookups and the search's 92 relationship steps
    result = engine.execute(query, row_budget=94)
    assert [record.values() for record in result] == [[3]]
