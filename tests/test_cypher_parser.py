"""Tests for the Cypher parser (AST shapes and error handling)."""

import pytest

from repro.cypher import ast_nodes as ast
from repro.cypher.errors import CypherSyntaxError
from repro.cypher.parser import MAX_EXPRESSION_DEPTH, parse, parse_expression


def single(query):
    tree = parse(query)
    assert isinstance(tree, ast.SingleQuery)
    return tree


class TestMatchParsing:
    def test_simple_match_return(self):
        tree = single("MATCH (a:AS) RETURN a")
        match, ret = tree.clauses
        assert isinstance(match, ast.MatchClause)
        assert isinstance(ret, ast.ReturnClause)
        assert not match.optional

    def test_optional_match(self):
        tree = single("OPTIONAL MATCH (a:AS) RETURN a")
        assert tree.clauses[0].optional

    def test_where_attaches_to_match(self):
        tree = single("MATCH (a) WHERE a.x > 1 RETURN a")
        assert tree.clauses[0].where is not None

    def test_node_pattern_fields(self):
        tree = single("MATCH (a:AS:Network {asn: 1, name: 'x'}) RETURN a")
        node = tree.clauses[0].pattern.parts[0].elements[0]
        assert node.variable == "a"
        assert node.labels == ("AS", "Network")
        assert dict(node.properties).keys() == {"asn", "name"}

    def test_keyword_label_as(self):
        tree = single("MATCH (a:AS) RETURN a")
        assert tree.clauses[0].pattern.parts[0].elements[0].labels == ("AS",)

    def test_anonymous_node(self):
        tree = single("MATCH (:AS) RETURN 1")
        assert tree.clauses[0].pattern.parts[0].elements[0].variable is None

    def test_relationship_directions(self):
        for text, direction in [
            ("MATCH (a)-[:X]->(b) RETURN a", "out"),
            ("MATCH (a)<-[:X]-(b) RETURN a", "in"),
            ("MATCH (a)-[:X]-(b) RETURN a", "both"),
        ]:
            rel = single(text).clauses[0].pattern.parts[0].elements[1]
            assert rel.direction == direction

    def test_relationship_alternative_types(self):
        rel = single("MATCH (a)-[:X|Y|Z]->(b) RETURN a").clauses[0].pattern.parts[0].elements[1]
        assert rel.types == ("X", "Y", "Z")

    def test_bare_relationship(self):
        rel = single("MATCH (a)--(b) RETURN a").clauses[0].pattern.parts[0].elements[1]
        assert rel.types == ()
        assert rel.variable is None

    def test_variable_length(self):
        rel = single("MATCH (a)-[:X*1..3]->(b) RETURN a").clauses[0].pattern.parts[0].elements[1]
        assert rel.var_length
        assert (rel.min_hops, rel.max_hops) == (1, 3)

    def test_variable_length_unbounded(self):
        rel = single("MATCH (a)-[*]->(b) RETURN a").clauses[0].pattern.parts[0].elements[1]
        assert rel.var_length
        assert (rel.min_hops, rel.max_hops) == (None, None)

    def test_variable_length_exact(self):
        rel = single("MATCH (a)-[*2]->(b) RETURN a").clauses[0].pattern.parts[0].elements[1]
        assert (rel.min_hops, rel.max_hops) == (2, 2)

    def test_path_variable(self):
        part = single("MATCH p = (a)-[:X]->(b) RETURN p").clauses[0].pattern.parts[0]
        assert part.path_variable == "p"

    def test_multiple_pattern_parts(self):
        pattern = single("MATCH (a), (b)-[:X]->(c) RETURN a").clauses[0].pattern
        assert len(pattern.parts) == 2

    def test_hop_count_property(self):
        part = single("MATCH (a)-[:X]->(b)-[:Y*1..3]->(c) RETURN a").clauses[0].pattern.parts[0]
        assert part.hop_count == 4

    def test_double_arrow_rejected(self):
        with pytest.raises(CypherSyntaxError):
            parse("MATCH (a)<-[:X]->(b) RETURN a")


class TestProjectionParsing:
    def test_aliases(self):
        ret = single("MATCH (a) RETURN a.x AS y").clauses[-1]
        assert ret.items[0].alias == "y"
        assert ret.items[0].output_name() == "y"

    def test_implicit_column_name(self):
        ret = single("MATCH (a) RETURN a.x").clauses[-1]
        assert ret.items[0].output_name() == "a.x"

    def test_distinct(self):
        assert single("MATCH (a) RETURN DISTINCT a").clauses[-1].distinct

    def test_star(self):
        assert single("MATCH (a) RETURN *").clauses[-1].star

    def test_order_skip_limit(self):
        ret = single("MATCH (a) RETURN a ORDER BY a.x DESC, a.y SKIP 2 LIMIT 5").clauses[-1]
        assert len(ret.order_by) == 2
        assert ret.order_by[0].descending
        assert not ret.order_by[1].descending
        assert isinstance(ret.skip, ast.Literal)
        assert isinstance(ret.limit, ast.Literal)

    def test_with_where(self):
        with_clause = single("MATCH (a) WITH a.x AS x WHERE x > 1 RETURN x").clauses[1]
        assert isinstance(with_clause, ast.WithClause)
        assert with_clause.where is not None

    def test_unwind(self):
        unwind = single("UNWIND [1,2] AS x RETURN x").clauses[0]
        assert isinstance(unwind, ast.UnwindClause)
        assert unwind.variable == "x"

    def test_return_must_be_last(self):
        from repro.cypher.executor import execute
        from repro.graph import GraphStore

        with pytest.raises(CypherSyntaxError):
            execute(GraphStore(), "RETURN 1 MATCH (a) RETURN a")


class TestUnionParsing:
    def test_union(self):
        tree = parse("RETURN 1 AS x UNION RETURN 2 AS x")
        assert isinstance(tree, ast.UnionQuery)
        assert not tree.union_all
        assert len(tree.queries) == 2

    def test_union_all(self):
        tree = parse("RETURN 1 AS x UNION ALL RETURN 2 AS x")
        assert tree.union_all

    def test_mixed_union_rejected(self):
        with pytest.raises(CypherSyntaxError):
            parse("RETURN 1 UNION RETURN 2 UNION ALL RETURN 3")


class TestWriteParsing:
    def test_create(self):
        clause = single("CREATE (a:AS {asn: 1})").clauses[0]
        assert isinstance(clause, ast.CreateClause)

    def test_set_variants(self):
        clause = single("MATCH (a) SET a.x = 1, a.y = a.x + 1").clauses[1]
        assert [(item.variable, item.key) for item in clause.items] == [("a", "x"), ("a", "y")]


class TestExpressionParsing:
    def test_precedence_arithmetic(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.BinaryOp)
        assert expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp)

    def test_power_right_associative(self):
        expr = parse_expression("2 ^ 3 ^ 2")
        assert expr.op == "^"
        assert isinstance(expr.right, ast.BinaryOp)

    def test_boolean_precedence(self):
        expr = parse_expression("true OR false AND false")
        assert isinstance(expr, ast.BooleanOp)
        assert expr.op == "OR"

    def test_not(self):
        assert isinstance(parse_expression("NOT true"), ast.NotOp)

    def test_comparison_chain(self):
        expr = parse_expression("1 < 2 <= 3")
        assert isinstance(expr, ast.Comparison)
        assert expr.ops == ("<", "<=")

    def test_string_predicates(self):
        for text, op in [
            ("a STARTS WITH 'x'", "STARTS"),
            ("a ENDS WITH 'x'", "ENDS"),
            ("a CONTAINS 'x'", "CONTAINS"),
        ]:
            expr = parse_expression(text)
            assert isinstance(expr, ast.StringPredicate)
            assert expr.op == op

    def test_in_list(self):
        assert isinstance(parse_expression("1 IN [1, 2]"), ast.InList)

    def test_is_null(self):
        expr = parse_expression("a IS NOT NULL")
        assert isinstance(expr, ast.IsNull)
        assert expr.negated

    def test_parameters(self):
        expr = parse_expression("$asn")
        assert isinstance(expr, ast.Parameter)
        assert expr.name == "asn"

    def test_count_star(self):
        assert isinstance(parse_expression("count(*)"), ast.CountStar)

    def test_count_distinct(self):
        expr = parse_expression("count(DISTINCT a)")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.distinct

    def test_case_generic(self):
        expr = parse_expression("CASE WHEN a > 1 THEN 'big' ELSE 'small' END")
        assert isinstance(expr, ast.CaseExpr)
        assert expr.subject is None

    def test_case_simple(self):
        expr = parse_expression("CASE a WHEN 1 THEN 'one' END")
        assert expr.subject is not None
        assert expr.default is None

    def test_case_requires_when(self):
        with pytest.raises(CypherSyntaxError):
            parse_expression("CASE a ELSE 1 END")

    def test_list_literal_and_comprehension(self):
        assert isinstance(parse_expression("[1, 2, 3]"), ast.ListLiteral)
        comp = parse_expression("[x IN [1,2] WHERE x > 1 | x * 2]")
        assert isinstance(comp, ast.ListComprehension)
        assert comp.variable == "x"
        assert comp.predicate is not None
        assert comp.projection is not None

    def test_map_literal(self):
        expr = parse_expression("{a: 1, b: 'x'}")
        assert isinstance(expr, ast.MapLiteral)

    def test_slice_and_subscript(self):
        assert isinstance(parse_expression("a[0]"), ast.Subscript)
        assert isinstance(parse_expression("a[1..3]"), ast.Slice)
        assert isinstance(parse_expression("a[..2]"), ast.Slice)

    def test_label_predicate_desugars(self):
        expr = parse_expression("n:AS")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "hasLabel"

    def test_exists_function(self):
        assert isinstance(parse_expression("exists(a.x)"), ast.ExistsExpr)

    def test_exists_pattern(self):
        expr = parse_expression("exists((a)-[:X]->())")
        assert isinstance(expr, ast.ExistsExpr)
        assert isinstance(expr.target, ast.PatternPart)

    def test_pattern_predicate(self):
        expr = parse_expression("(a)-[:X]->(b)")
        assert isinstance(expr, ast.PatternPredicate)

    def test_unary_minus(self):
        expr = parse_expression("-a.x")
        assert isinstance(expr, ast.UnaryOp)


class TestParserErrors:
    @pytest.mark.parametrize(
        "query",
        [
            "",
            "MATCH",
            "MATCH (a RETURN a",
            "MATCH (a) RETURN",
            "RETURN 1 2",
            "MATCH (a)-[>(b) RETURN a",
            "UNWIND [1,2] x RETURN x",
            "MATCH (a) WHERE RETURN a",
            "MATCH (a) SET a",
        ],
    )
    def test_bad_queries_raise_syntax_error(self, query):
        with pytest.raises(CypherSyntaxError):
            parse(query)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CypherSyntaxError):
            parse("RETURN 1 ;;")

    @pytest.mark.parametrize("prefix, suffix", [
        ("RETURN ", " AS x"),
        ("MATCH (a)-[*", "]-(b) RETURN a"),
        ("MATCH (a)-[*1..", "]-(b) RETURN a"),
        ("MATCH (a)-[*..", "]-(b) RETURN a"),
    ], ids=["literal", "hops", "max_hops", "max_hops_only"])
    def test_integer_past_digit_limit_is_syntax_error(self, prefix, suffix):
        # int() refuses more than 4,300 digits; the error names the token.
        with pytest.raises(CypherSyntaxError, match="integer literal too long") as caught:
            parse(prefix + "9" * 5000 + suffix)
        assert caught.value.position == len(prefix)

    def test_semicolon_terminator_allowed(self):
        parse("RETURN 1;")


class TestExpressionDepth:
    """Nesting and operator chains count alike against MAX_EXPRESSION_DEPTH;
    each shape below is ``depth`` levels deep."""

    SHAPES = {
        "list": lambda depth: "[" * (depth - 1) + "1" + "]" * (depth - 1),
        "parentheses": lambda depth: "(" * (depth - 1) + "1" + ")" * (depth - 1),
        "function": lambda depth: "abs(" * (depth - 1) + "1" + ")" * (depth - 1),
        "map": lambda depth: "{a: " * (depth - 1) + "1" + "}" * (depth - 1),
        "sum": lambda depth: " + ".join(["1"] * depth),
        "power": lambda depth: " ^ ".join(["1"] * depth),
        "not": lambda depth: "NOT " * (depth - 1) + "true",
        "negation": lambda depth: "- " * (depth - 1) + "1",
        "property": lambda depth: "m" + ".a" * (depth - 1),
        "is_null": lambda depth: "1" + " IS NULL" * (depth - 1),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_bound_parses_and_one_past_is_syntax_error(self, shape):
        make = self.SHAPES[shape]
        parse_expression(make(MAX_EXPRESSION_DEPTH))
        with pytest.raises(CypherSyntaxError, match="expression nested too deeply"):
            parse_expression(make(MAX_EXPRESSION_DEPTH + 1))

    def test_far_past_the_bound_is_syntax_error_not_recursion_error(self):
        for text in ("RETURN " + "[" * 5000 + "1" + "]" * 5000,
                     "RETURN " + " + ".join(["1"] * 5000),
                     "RETURN " + "NOT " * 5000 + "true",
                     "RETURN " + "- " * 5000 + "1",
                     "RETURN " + " ^ ".join(["1"] * 5000)):
            with pytest.raises(CypherSyntaxError, match="expression nested too deeply"):
                parse(text)

    def test_depth_is_counted_per_expression(self):
        # Sibling expressions at the bound do not add up.
        deep = self.SHAPES["sum"](MAX_EXPRESSION_DEPTH)
        shallower = self.SHAPES["sum"](MAX_EXPRESSION_DEPTH - 1)
        parse(f"WITH {deep} AS a WHERE {shallower} > 0 RETURN [{shallower}] AS b, {deep} AS c")

    def test_chain_below_nesting_counts_both(self):
        # A chain inside a nested list is as deep as the two together.
        half = MAX_EXPRESSION_DEPTH // 2
        chain = " + ".join(["1"] * (MAX_EXPRESSION_DEPTH - half))
        parse_expression("[" * half + chain + "]" * half)
        with pytest.raises(CypherSyntaxError, match="expression nested too deeply"):
            parse_expression("[" * half + chain + " + 1" + "]" * half)
