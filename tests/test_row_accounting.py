"""Row accounting: one budget currency, charged inline or through ``charge``.

Pattern operators (anchor scans, expansions, shortest paths) charge every
node and relationship they examine, bound or not; every other operator
charges the rows it emits, the hottest inline against
``RuntimeState.limit`` and the rest through ``charge``.  A MATCH with a
pattern predicate runs every kind in one run, so it checks that the
counters, the row budget and the deadline reads agree whichever way a unit
was charged.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cypher import CypherEngine, ResourceExhausted, executor
from repro.cypher.operators import AnchorScan, Expand, PhysicalOperator, RuntimeState, ShortestPath
from repro.graph import GraphStore

QUERY = ("MATCH (a:AS)-[:COUNTRY]->(c:Country) "
         "WHERE a.asn > 2000 AND (a)-[:PEERS_WITH]->(:AS) "
         "RETURN a.asn AS asn, c.country_code AS country ORDER BY asn")


class CountingDeadline:
    """A deadline that never expires and counts how often it is read."""

    def __init__(self) -> None:
        self.reads = 0

    @property
    def expired(self) -> bool:
        self.reads += 1
        return False


@pytest.fixture()
def runs(monkeypatch):
    """Every run's state, the rows each operator yielded, the numbers
    ``charge`` was called with, the candidate nodes and relationships the
    pattern operators read, and the pattern operators' numbers, across the
    runs of one test."""
    states, yielded, calls, examined, pattern = [], Counter(), Counter(), Counter(), set()

    class Recorded(RuntimeState):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

        def charge(self, number: int) -> None:
            calls[number] += 1
            super().charge(number)

    real_open = PhysicalOperator.open
    real_candidates = executor._ExecutionContext._node_candidates
    real_adjacent = GraphStore.adjacent_relationships

    def counting_open(self, run):
        if isinstance(self, (AnchorScan, Expand, ShortestPath)):
            pattern.add(self.number)
        for row in real_open(self, run):
            yielded[self.number] += 1
            yield row

    def counted(kind, items):
        for item in items:
            examined[kind] += 1
            yield item

    monkeypatch.setattr(executor, "RuntimeState", Recorded)
    monkeypatch.setattr(PhysicalOperator, "open", counting_open)
    monkeypatch.setattr(
        executor._ExecutionContext, "_node_candidates",
        lambda run, *args: counted("nodes", real_candidates(run, *args)),
    )
    monkeypatch.setattr(
        GraphStore, "adjacent_relationships",
        lambda store, *args: counted("relationships", real_adjacent(store, *args)),
    )
    return states, yielded, calls, examined, pattern


def test_counters_are_the_sum_of_the_charges(small_store, runs):
    states, yielded, calls, examined, pattern = runs
    result = CypherEngine(small_store).execute(QUERY, {"run": 1})
    assert len(result) > 0
    (state,) = states
    rows_out = state.rows_out
    # One counter per operator.
    assert len(rows_out) == len(state.elapsed_s)
    emitted = [number for number, rows in yielded.items() if rows]
    # Every operator counted each row it yielded.
    assert all(rows_out[number] == yielded[number] for number in emitted)
    # Charged units = examined nodes and relationships + rows the other
    # operators emitted; the pattern operators rejected some of what they read.
    others = sum(rows for number, rows in yielded.items() if number not in pattern)
    assert state.rows == examined["nodes"] + examined["relationships"] + others
    assert examined["nodes"] + examined["relationships"] > sum(
        yielded[number] for number in pattern
    )
    inline = [number for number in emitted if number not in calls and number not in pattern]
    assert inline and calls, "both kinds of emitted-row charge must run"


def test_budget_fires_at_the_row_past_it(small_store, runs):
    states = runs[0]
    engine = CypherEngine(small_store)
    engine.execute(QUERY, {"run": 1})
    total = states[-1].rows
    assert len(engine.execute(QUERY, {"run": 2}, row_budget=total)) > 0
    for budget in (0, 1, 255, 256, total // 2, total - 1):
        with pytest.raises(ResourceExhausted, match=f"budget \\({budget} rows\\)"):
            engine.execute(QUERY, {"run": 3}, row_budget=budget)
        assert states[-1].rows == budget + 1


@pytest.mark.parametrize("budget", [None, 10 ** 9])
def test_deadline_is_read_once_per_256_rows(small_store, runs, budget):
    states = runs[0]
    deadline = CountingDeadline()
    CypherEngine(small_store).execute(QUERY, {"run": 1}, deadline=deadline, row_budget=budget)
    (state,) = states
    assert state.rows > 512
    # One read before the run starts, then one per 256 rows charged.
    assert deadline.reads == 1 + state.rows // 256
