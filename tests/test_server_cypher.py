"""Tests for the /cypher and /cookbook endpoints and query safety."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.cypher import CypherSyntaxError, executor, is_read_only, parser
from repro.cypher.lexer import tokenize
from repro.cypher.parser import MAX_EXPRESSION_DEPTH
from repro.server import start_background


@pytest.fixture(scope="module")
def port(chatiyp_small):
    server, port = start_background(chatiyp_small)
    yield port
    server.shutdown()
    assert server.escaped_errors == 0


def nested_list(depth):
    """A list literal ``depth`` levels deep, counting the innermost 1."""
    return "[" * (depth - 1) + "1" + "]" * (depth - 1)


def get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def post(port, path, payload, timeout=30):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestIsReadOnly:
    @pytest.mark.parametrize(
        "query",
        [
            "MATCH (a:AS) RETURN a",
            "MATCH (a) WHERE a.x = 1 RETURN count(*)",
            "RETURN 1 UNION RETURN 2",
            "MATCH p = shortestPath((a:AS)-[*..3]-(b:AS)) RETURN p LIMIT 1",
        ],
    )
    def test_reads(self, query):
        assert is_read_only(query)

    @pytest.mark.parametrize(
        "query",
        [
            "CREATE (a:AS {asn: 1})",
            "MATCH (a:AS) SET a.x = 1",
            "MATCH (a:AS) DETACH DELETE a",
            "MERGE (a:AS {asn: 1})",
            "MATCH (a:AS) REMOVE a.x",
            "MATCH (a) RETURN a UNION MATCH (b) DELETE b RETURN b",
        ],
    )
    def test_writes(self, query):
        assert not is_read_only(query)

    def test_unparseable_raises(self):
        with pytest.raises(CypherSyntaxError):
            is_read_only("HELLO WORLD")


class TestCypherEndpoint:
    def test_read_query(self, port):
        status, payload = post(
            port, "/cypher",
            {"query": "MATCH (a:AS {asn: $asn}) RETURN a.name AS name",
             "params": {"asn": 2497}},
        )
        assert status == 200
        assert payload["keys"] == ["name"]
        assert "IIJ" in payload["rows"][0]["name"]

    def test_write_rejected(self, port, chatiyp_small):
        before = chatiyp_small.store.node_count
        status, payload = post(port, "/cypher", {"query": "CREATE (x:Tag {label: 'evil'})"})
        assert status == 403
        assert chatiyp_small.store.node_count == before

    def test_syntax_error_is_400(self, port):
        status, payload = post(port, "/cypher", {"query": "MATCH"})
        assert status == 400
        assert "syntax" in payload["error"]

    @pytest.mark.parametrize("query", [
        r"RETURN '\uZZZZ' AS x", "RETURN 1² AS x",
        # past int()'s 4,300-digit limit
        pytest.param("RETURN " + "9" * 5000 + " AS x", id="long_int"),
        pytest.param("MATCH (a)-[*" + "9" * 5000 + "]-(b) RETURN a", id="long_hops"),
        # nested past the parser's depth bound
        pytest.param("RETURN " + nested_list(101) + " AS x", id="deep_list"),
        pytest.param("RETURN " + "(" * 100 + "1" + ")" * 100 + " AS x", id="deep_parentheses"),
        pytest.param("RETURN " + " + ".join(["1"] * 1000) + " AS x", id="long_sum"),
    ])
    def test_malformed_literal_is_400(self, port, query):
        status, payload = post(port, "/cypher", {"query": query})
        assert status == 400
        assert "syntax" in payload["error"]

    @pytest.mark.parametrize("expression, rendered", [
        (nested_list(MAX_EXPRESSION_DEPTH), nested_list(MAX_EXPRESSION_DEPTH)),
        (" + ".join(["1"] * MAX_EXPRESSION_DEPTH), str(MAX_EXPRESSION_DEPTH)),
    ], ids=["list", "sum"])
    def test_expression_at_depth_bound_runs(self, port, expression, rendered):
        # Parsed, lowered, evaluated and rendered in the server's thread.
        for query in (f"RETURN {expression} AS x", f"RETURN {expression}"):
            status, payload = post(port, "/cypher", {"query": query})
            assert status == 200, payload
            assert list(payload["rows"][0].values()) == [rendered]

    def test_parameter_depth_bound(self, port):
        query = {"query": "RETURN $p AS x"}
        at_bound = json.loads(nested_list(MAX_EXPRESSION_DEPTH))
        status, payload = post(port, "/cypher", {**query, "params": {"p": at_bound}})
        assert status == 200, payload
        assert payload["rows"] == [{"x": nested_list(MAX_EXPRESSION_DEPTH)}]
        for past in (json.loads(nested_list(MAX_EXPRESSION_DEPTH + 1)),
                     {"k": at_bound}, json.loads(nested_list(400))):
            status, payload = post(port, "/cypher", {**query, "params": {"p": past}})
            assert status == 400
            assert payload["error"] == (
                "query failed: CypherRuntimeError: parameter $p nested too deeply"
            )

    def test_new_query_is_tokenized_once(self, port, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return tokenize(text)

        # The engine tokenizes to find the shape and hands the tokens to the parser.
        monkeypatch.setattr(parser, "tokenize", counting)
        monkeypatch.setattr(executor, "tokenize", counting)
        # Texts of shapes no other test sends: a text of a known form (the
        # text between its literals) is not tokenized again.
        query = "MATCH (a:AS) WHERE a.asn = 2497 RETURN a.asn AS tokenized_once"
        assert post(port, "/cypher", {"query": query})[0] == 200
        assert calls == [query]
        mate = "MATCH (a:AS) WHERE a.asn = 15169 RETURN a.asn AS tokenized_once"
        assert post(port, "/cypher", {"query": mate})[1]["rows"] == [{"tokenized_once": "15169"}]
        assert calls == [query]  # the shape-mate's literals fill the known form
        assert post(port, "/cypher", {"query": query})[0] == 200
        assert calls == [query]  # the engine's cached entry answers the repeat
        write = "CREATE (x:Tag {tokenized_once: 'write'})"
        assert post(port, "/cypher", {"query": write})[0] == 403
        assert calls == [query, write]
        other_write = "CREATE (x:Tag {tokenized_once: 'other write'})"
        assert post(port, "/cypher", {"query": other_write})[0] == 403
        assert calls == [query, write]

    def test_runtime_error_is_400(self, port):
        status, payload = post(
            port, "/cypher", {"query": "MATCH (a:AS) RETURN $missing"}
        )
        assert status == 400

    @pytest.mark.parametrize(
        "query", ["RETURN sqrt(-1) AS x", "RETURN 'abc' =~ '[' AS x"]
    )
    def test_engine_domain_error_is_400(self, port, query):
        status, payload = post(port, "/cypher", {"query": query})
        assert status == 400
        assert "query failed" in payload["error"]

    def test_map_param_lookup_is_empty_result(self, port):
        status, payload = post(
            port, "/cypher",
            {"query": "MATCH (a:AS) WHERE a.asn = $x RETURN a.asn AS asn",
             "params": {"x": {"k": 1}}},
        )
        assert status == 200
        assert payload["rows"] == [] and payload["row_count"] == 0

    def test_missing_query_field(self, port):
        status, _ = post(port, "/cypher", {"nope": 1})
        assert status == 400

    def test_bad_params_type(self, port):
        status, _ = post(port, "/cypher", {"query": "RETURN 1", "params": [1]})
        assert status == 400

    @pytest.mark.parametrize("params", [[], 0, "", False, "x"])
    def test_falsy_or_scalar_params_are_400(self, port, params):
        status, payload = post(port, "/cypher", {"query": "RETURN 1 AS x", "params": params})
        assert status == 400
        assert payload["error"] == "'params' must be an object"

    @pytest.mark.parametrize("body", [{}, {"params": None}, {"params": {}}])
    def test_missing_or_null_params_are_empty(self, port, body):
        status, payload = post(port, "/cypher", {"query": "RETURN 1 AS x", **body})
        assert status == 200
        assert payload["rows"] == [{"x": "1"}]

    def test_rows_capped(self, port):
        status, payload = post(
            port, "/cypher", {"query": "UNWIND range(1, 500) AS x RETURN x"}
        )
        assert status == 200
        assert len(payload["rows"]) == 200
        assert payload["row_count"] == 500

    def test_parameter_named_query(self, port):
        status, payload = post(
            port, "/cypher", {"query": "RETURN $query AS q", "params": {"query": 1}}
        )
        assert status == 200
        assert payload["rows"] == [{"q": "1"}]


class TestCypherDeadline:
    # 15,003 charged rows, under the small graph's 15,580-row budget, but
    # five million list steps: about 15 s without a deadline.
    RUNAWAY = "UNWIND range(1, 5000) AS x RETURN size([y IN range(1, 1000) WHERE y > x]) AS n"

    @pytest.fixture(scope="class")
    def deadline_port(self, chatiyp_small):
        server, port = start_background(chatiyp_small, deadline_ms=200.0)
        yield port
        server.shutdown()
        assert server.escaped_errors == 0

    def test_runaway_query_stops_at_server_deadline(self, deadline_port):
        started = time.monotonic()
        status, payload = post(deadline_port, "/cypher", {"query": self.RUNAWAY}, timeout=10)
        assert status == 400
        assert "deadline" in payload["error"]
        assert time.monotonic() - started < 5

    def test_fast_query_unaffected(self, deadline_port):
        status, payload = post(
            deadline_port, "/cypher",
            {"query": "MATCH (a:AS {asn: $asn}) RETURN a.asn AS asn", "params": {"asn": 2497}},
        )
        assert status == 200
        assert payload["rows"] == [{"asn": "2497"}]


class TestCypherRowBudget:
    """Without a server deadline, ``/cypher`` is bounded by the derived row
    budget, which charges every pair and step a shortest-path search tries."""

    def test_all_pairs_shortest_path_is_400(self, port):
        started = time.monotonic()
        status, payload = post(
            port, "/cypher", {"query": "MATCH p = shortestPath((a)-[*]-(b)) RETURN p"},
            timeout=10,
        )
        assert status == 400
        assert "ResourceExhausted" in payload["error"]
        assert "row budget (15580 rows)" in payload["error"]
        assert time.monotonic() - started < 5


class TestCookbookEndpoint:
    def test_lists_queries(self, port):
        status, payload = get(port, "/cookbook")
        assert status == 200
        names = {entry["name"] for entry in payload["queries"]}
        assert "as_overview" in names
        for entry in payload["queries"]:
            assert entry["description"]
            assert entry["cypher"].startswith("MATCH")

    def test_cookbook_queries_runnable_via_cypher_endpoint(self, port):
        _, payload = get(port, "/cookbook")
        overview = next(e for e in payload["queries"] if e["name"] == "as_overview")
        status, result = post(
            port, "/cypher", {"query": overview["cypher"], "params": {"asn": 2497}}
        )
        assert status == 200
        assert result["rows"][0]["asn"] == "2497"  # rendered values are strings
