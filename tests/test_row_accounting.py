"""Row accounting: inline charges and ``RuntimeState.charge`` share one count.

The hottest operators charge the rows they emit with inline statements
against ``RuntimeState.limit``; the others, and the sub-chains of pattern
expressions for the candidates they examine, call ``charge``.  A MATCH with
a pattern predicate runs both kinds in one run, so it checks that the
counters, the row budget and the deadline reads agree whichever way a row
was charged.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cypher import CypherEngine, ResourceExhausted, executor
from repro.cypher.operators import PhysicalOperator, RuntimeState

QUERY = ("MATCH (a:AS)-[:COUNTRY]->(c:Country) WHERE (a)-[:PEERS_WITH]->(:AS) "
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
    """Every run's state, plus the rows each operator yielded and the
    numbers ``charge`` was called with, across the runs of one test."""
    states, yielded, calls = [], Counter(), Counter()

    class Recorded(RuntimeState):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

        def charge(self, number: int = -1) -> None:
            calls[number] += 1
            super().charge(number)

    real_open = PhysicalOperator.open

    def counting_open(self, run):
        for row in real_open(self, run):
            yielded[self.number] += 1
            yield row

    monkeypatch.setattr(executor, "RuntimeState", Recorded)
    monkeypatch.setattr(PhysicalOperator, "open", counting_open)
    return states, yielded, calls


def test_counters_are_the_sum_of_the_charges(small_store, runs):
    states, yielded, calls = runs
    result = CypherEngine(small_store).execute(QUERY, {"run": 1})
    assert len(result) > 0
    (state,) = states
    rows_out = state.rows_out
    emitted = [number for number, rows in yielded.items() if rows]
    # Every operator charged each row it yielded, inline or through charge().
    assert all(rows_out[number] == yielded[number] for number in emitted)
    # Examined candidates and steps are charged on no operator's behalf.
    assert rows_out[-1] == calls[-1] > 0
    assert state.rows == sum(rows_out) == sum(yielded.values()) + calls[-1]
    inline = [number for number in emitted if number not in calls]
    assert inline and set(calls) - {-1}, "both kinds of charge must run"


def test_budget_fires_at_the_row_past_it(small_store, runs):
    states, _, _ = runs
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
    states, _, _ = runs
    deadline = CountingDeadline()
    CypherEngine(small_store).execute(QUERY, {"run": 1}, deadline=deadline, row_budget=budget)
    (state,) = states
    assert state.rows > 512
    # One read before the run starts, then one per 256 rows charged.
    assert deadline.reads == 1 + state.rows // 256
