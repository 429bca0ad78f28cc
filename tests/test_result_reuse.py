"""Result reuse: a read-only query repeated on an unchanged graph is served
from the engine's memo of its last result.

Each test compares the served result against a fresh engine over the same
store (no memo), which is the behaviour reuse must be indistinguishable
from, and checks the ``result_hits`` counter to tell a hit from a run.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import ChatIYP, ChatIYPConfig
from repro.cypher import CypherDeadlineExceeded, CypherEngine, ResourceExhausted
from repro.faults import FaultPlan, FaultSpec, InjectedCypherError, activated
from repro.graph import GraphStore

COUNT_AS = "MATCH (a:AS) RETURN count(a) AS n"
AS_ROWS = (
    "MATCH (a:AS)-[r]->(c) RETURN a.asn AS asn, type(r) AS t, properties(r) AS props"
    " ORDER BY asn, t"
)


def hits(engine: CypherEngine) -> int:
    return engine.cache_stats()["result_hits"]


def rows(result) -> list[list]:
    return [record.values() for record in result]


def fresh_rows(store: GraphStore, query: str) -> list[list]:
    return rows(CypherEngine(store).execute(query))


class TestHits:
    def test_hit_equals_fresh_engine(self, tiny_store):
        engine = CypherEngine(tiny_store)
        first = engine.execute(AS_ROWS)
        assert hits(engine) == 0
        second = engine.execute(AS_ROWS)
        assert hits(engine) == 1
        assert rows(second) == rows(first) == fresh_rows(tiny_store, AS_ROWS)
        assert second.keys == first.keys
        assert second is not first

    def test_returned_records_list_is_private(self, tiny_store):
        engine = CypherEngine(tiny_store)
        first = engine.execute(AS_ROWS)
        expected = rows(first)
        first.records.clear()
        second = engine.execute(AS_ROWS)
        assert rows(second) == expected
        second.records.append(second.records[0])
        second.keys.append("junk")
        third = engine.execute(AS_ROWS)
        assert hits(engine) == 2
        assert rows(third) == expected
        assert "junk" not in third.keys

    def test_run_and_execute_share_the_memo(self, tiny_store):
        engine = CypherEngine(tiny_store)
        engine.run(COUNT_AS)
        assert engine.execute(COUNT_AS).single()["n"] == 2
        assert hits(engine) == 1

    def test_union_of_reads_is_reused(self, tiny_store):
        engine = CypherEngine(tiny_store)
        query = "MATCH (a:AS) RETURN a.asn AS x UNION MATCH (c:Country) RETURN c.name AS x"
        first = rows(engine.execute(query))
        assert rows(engine.execute(query)) == first
        assert hits(engine) == 1


# Each write changes what AS_ROWS or COUNT_AS return (or, for the index,
# only the graph version), so a stale memo would show.
STORE_WRITES = {
    "create_node": lambda store: store.create_node(["AS"], {"asn": 7}),
    "create_relationship": lambda store: store.create_relationship(0, "X", 2),
    "set_node_property": lambda store: store.set_node_property(0, "asn", 1),
    "set_relationship_property": lambda store: store.set_relationship_property(1, "w", 9),
    "remove_relationship_property": lambda store: store.set_relationship_property(
        1, "percent", None
    ),
    "create_property_index": lambda store: store.create_property_index("AS", "name"),
}

CYPHER_WRITES = {
    "create": "CREATE (:AS {asn: 64512})",
    "set_node": "MATCH (a:AS {asn: 2497}) SET a.asn = 1",
    "set_relationship": "MATCH (:AS)-[r:POPULATION]->() SET r.w = 2",
}


class TestInvalidation:
    @pytest.mark.parametrize("write", sorted(STORE_WRITES))
    def test_store_write_invalidates(self, tiny_store, write):
        engine = CypherEngine(tiny_store)
        for query in (AS_ROWS, COUNT_AS):
            engine.execute(query)
        STORE_WRITES[write](tiny_store)
        for query in (AS_ROWS, COUNT_AS):
            assert rows(engine.execute(query)) == fresh_rows(tiny_store, query)
        assert hits(engine) == 0

    @pytest.mark.parametrize("write", sorted(CYPHER_WRITES))
    def test_cypher_write_invalidates(self, tiny_store, write):
        engine = CypherEngine(tiny_store)
        before = rows(engine.execute(AS_ROWS)) + rows(engine.execute(COUNT_AS))
        engine.execute(CYPHER_WRITES[write])
        after = [rows(engine.execute(query)) for query in (AS_ROWS, COUNT_AS)]
        assert hits(engine) == 0
        assert after == [fresh_rows(tiny_store, query) for query in (AS_ROWS, COUNT_AS)]
        assert after[0] + after[1] != before

    def test_write_landing_mid_execution_leaves_no_servable_memo(self, tiny_store):
        """A write during a run bumps the version past the memo's tag."""

        class WritingDeadline:
            writes = 0

            @property
            def expired(self) -> bool:
                if not self.writes:
                    self.writes += 1
                    tiny_store.create_node(["AS"], {"asn": 64514})
                return False

        engine = CypherEngine(tiny_store)
        engine.execute(COUNT_AS, deadline=WritingDeadline())
        assert engine.execute(COUNT_AS).single()["n"] == 3
        assert hits(engine) == 0
        assert engine.execute(COUNT_AS).single()["n"] == 3
        assert hits(engine) == 1


class TestBypass:
    def test_write_queries_always_execute(self, tiny_store):
        engine = CypherEngine(tiny_store)
        query = "CREATE (:Tag {name: 'x'}) RETURN 1 AS one"
        for _ in range(3):
            assert engine.execute(query).single()["one"] == 1
        assert engine.execute("MATCH (t:Tag) RETURN count(t) AS n").single()["n"] == 3
        assert hits(engine) == 0
        assert engine.cache_stats()["memoised_rows"] == 1

    def test_write_in_one_union_branch_executes(self, tiny_store):
        engine = CypherEngine(tiny_store)
        query = "MATCH (a:AS) RETURN a.asn AS x UNION CREATE (t:Tag) RETURN 0 AS x"
        engine.execute(query)
        engine.execute(query)
        assert hits(engine) == 0
        assert fresh_rows(tiny_store, "MATCH (t:Tag) RETURN count(t)") == [[2]]

    def test_parameterised_queries_always_execute(self, tiny_store):
        engine = CypherEngine(tiny_store)
        query = "MATCH (a:AS {asn: $asn}) RETURN a.name AS name"
        assert engine.execute(query, {"asn": 2497}).single()["name"] == "IIJ"
        assert engine.execute(query, {"asn": 15169}).single()["name"] == "GOOGLE"
        engine.execute(COUNT_AS, {"_execute": 1})
        engine.execute(COUNT_AS, {"_execute": 1})
        assert hits(engine) == 0
        assert engine.cache_stats()["memoised_rows"] == 0

    def test_profile_always_executes(self, tiny_store):
        engine = CypherEngine(tiny_store)
        engine.execute(COUNT_AS)
        profiled = engine.execute(COUNT_AS, profile=True)
        assert profiled.profile is not None
        assert engine.profile(COUNT_AS)[0].profile is not None
        assert hits(engine) == 0
        plain = engine.execute(COUNT_AS)
        assert plain.profile is None
        assert hits(engine) == 1


class TestLimits:
    def test_budget_below_recorded_charge_raises_as_fresh(self, tiny_store):
        engine = CypherEngine(tiny_store)
        engine.execute(AS_ROWS)
        with pytest.raises(ResourceExhausted) as served:
            engine.execute(AS_ROWS, row_budget=2)
        with pytest.raises(ResourceExhausted) as fresh:
            CypherEngine(tiny_store).execute(AS_ROWS, row_budget=2)
        assert str(served.value) == str(fresh.value)
        assert hits(engine) == 0

    def test_budget_covering_the_charge_is_served(self, tiny_store):
        engine = CypherEngine(tiny_store)
        engine.execute(AS_ROWS)
        charged = engine._entries[AS_ROWS].memo[2]
        assert rows(engine.execute(AS_ROWS, row_budget=charged)) == fresh_rows(
            tiny_store, AS_ROWS
        )
        assert hits(engine) == 1

    def test_expired_deadline_raises_as_fresh(self, tiny_store):
        class Expired:
            expired = True

        engine = CypherEngine(tiny_store)
        engine.execute(COUNT_AS)
        with pytest.raises(CypherDeadlineExceeded) as served:
            engine.execute(COUNT_AS, deadline=Expired())
        with pytest.raises(CypherDeadlineExceeded) as fresh:
            CypherEngine(tiny_store).execute(COUNT_AS, deadline=Expired())
        assert str(served.value) == str(fresh.value)

    def test_injected_fault_fires_on_a_hit(self, tiny_store):
        engine = CypherEngine(tiny_store)
        engine.execute(COUNT_AS)
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec(site="graph.execute", kind="error", error="cypher"),),
            name="test",
        )
        with activated(plan):
            with pytest.raises(InjectedCypherError):
                engine.execute(COUNT_AS)
        assert engine.execute(COUNT_AS).single()["n"] == 2
        assert hits(engine) == 1


class TestRowCap:
    """Memoised rows stay at or below node_count + relationship_count (10)."""

    def test_larger_results_are_never_memoised(self, tiny_store):
        engine = CypherEngine(tiny_store)
        query = "UNWIND range(1, 11) AS x RETURN x"
        engine.execute(query)
        engine.execute(query)
        assert hits(engine) == 0
        assert engine.cache_stats()["memoised_rows"] == 0

    def test_oldest_memos_are_dropped_first(self, tiny_store):
        engine = CypherEngine(tiny_store)
        cap = tiny_store.node_count + tiny_store.relationship_count
        queries = [f"UNWIND range(1, 4) AS x RETURN x + {i} AS y" for i in range(4)]
        for query in queries:
            engine.execute(query)
            assert engine.cache_stats()["memoised_rows"] <= cap
        assert engine.cache_stats()["memoised_rows"] == 8
        engine.execute(queries[0])  # dropped: runs again
        assert hits(engine) == 0
        engine.execute(queries[3])  # newest: still memoised
        assert hits(engine) == 1

    def test_cache_eviction_releases_memo_rows(self, tiny_store):
        engine = CypherEngine(tiny_store, cache_size=2)
        for i in range(5):
            engine.execute(f"RETURN {i} AS x")
        stats = engine.cache_stats()
        assert stats["entries"] == 2
        assert stats["memoised_rows"] == 2


class TestConcurrency:
    def test_threads_keep_the_row_account_exact(self, tiny_store):
        """Threads racing memo writes, drops and evictions lose no rows."""
        engine = CypherEngine(tiny_store, cache_size=6)
        queries = [f"UNWIND range(1, {1 + i % 4}) AS x RETURN x + {i} AS y" for i in range(10)]
        expected = {query: fresh_rows(tiny_store, query) for query in queries}
        errors: list[BaseException] = []

        def worker(offset: int) -> None:
            try:
                for step in range(300):
                    query = queries[(offset + step) % len(queries)]
                    assert rows(engine.execute(query)) == expected[query]
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        stats = engine.cache_stats()
        held = sum(len(entry.memo[1].records) for entry in engine._memos)
        assert stats["memoised_rows"] == held
        assert held <= tiny_store.node_count + tiny_store.relationship_count
        assert all(entry.memo is not None for entry in engine._memos)
        assert stats["result_hits"] > 0


class TestObservability:
    def test_cache_stats_counts(self, tiny_store):
        engine = CypherEngine(tiny_store)
        assert engine.cache_stats() == {
            "entries": 0, "shapes": 0, "result_hits": 0, "memoised_rows": 0,
        }
        engine.execute(AS_ROWS)
        engine.execute(AS_ROWS)
        engine.execute(COUNT_AS)
        assert engine.cache_stats() == {
            "entries": 2,
            "shapes": 2,
            "result_hits": 1,
            "memoised_rows": len(fresh_rows(tiny_store, AS_ROWS)) + 1,
        }

    def test_serving_snapshot_reports_reuse(self, small_dataset):
        bot = ChatIYP(
            dataset=small_dataset,
            config=ChatIYPConfig(dataset_size="small", answer_cache_size=0),
        )
        question = "Which country is AS2497 registered in?"
        first = bot.ask(question)
        assert first.cypher
        before = bot.serving_snapshot()["cypher"]
        second = bot.ask(question)
        after = bot.serving_snapshot()["cypher"]
        assert second.answer == first.answer
        assert after["result_hits"] == before["result_hits"] + 1
        assert after["entries"] >= 1
        assert after["memoised_rows"] >= 1
