"""Recursive-descent parser for the Cypher subset.

Entry point: :func:`parse`.  The grammar covers the read/write clauses IYP
queries use in practice — MATCH / OPTIONAL MATCH / WHERE / WITH / RETURN /
ORDER BY / SKIP / LIMIT / UNWIND / UNION [ALL] / CREATE / MERGE / SET /
DELETE / REMOVE — plus the full expression language (boolean ternary logic,
comparisons, string predicates, list/map literals, CASE, list
comprehensions, variable-length paths, parameters).
"""

from __future__ import annotations

from typing import Optional, Union

from . import ast_nodes as ast
from .errors import CypherSyntaxError
from .lexer import Token, tokenize

__all__ = ["parse", "parse_expression"]


def parse(text: str) -> ast.Query:
    """Parse a complete Cypher query into an AST.

    Raises:
        CypherSyntaxError: on any lexical or grammatical problem.
    """
    parser = _Parser(text)
    query = parser.parse_query()
    parser.expect_end()
    return query


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used in tests and the REPL)."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.expect_end()
    return expr


class _Parser:
    """Token-cursor with one helper method per grammar production."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        #: pattern predicates, EXISTS patterns and comprehensions parsed so far
        self.pattern_expressions = 0

    # ------------------------------------------------------------------
    # Cursor helpers
    # ------------------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def peek(self, offset: int = 1) -> Token:
        i = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "EOF":
            self.index += 1
        return token

    def accept(self, kind: str) -> Optional[Token]:
        if self.current.kind == kind:
            return self.advance()
        return None

    def accept_keyword(self, *names: str) -> Optional[Token]:
        if self.current.is_keyword(*names):
            return self.advance()
        return None

    def expect(self, kind: str, what: str = "") -> Token:
        if self.current.kind != kind:
            expected = what or kind
            raise self.error(f"expected {expected}, found {self.current.value!r}")
        return self.advance()

    def expect_keyword(self, *names: str) -> Token:
        if not self.current.is_keyword(*names):
            raise self.error(f"expected {'/'.join(names)}, found {self.current.value!r}")
        return self.advance()

    def expect_end(self) -> None:
        self.accept("SEMICOLON")
        if self.current.kind != "EOF":
            raise self.error(f"unexpected input {self.current.value!r}")

    def error(self, message: str) -> CypherSyntaxError:
        return CypherSyntaxError(message, self.current.position, self.text)

    def parse_name(self) -> str:
        """An identifier; also tolerates non-reserved keyword-looking names."""
        if self.current.kind == "IDENT":
            return self.advance().value
        # COUNT and a few others are keywords but valid as identifiers in
        # some positions (e.g. a variable named `count`).
        if self.current.kind == "KEYWORD" and self.current.value in ("COUNT", "ALL", "END"):
            return self.advance().text
        raise self.error(f"expected a name, found {self.current.value!r}")

    def parse_label_name(self) -> str:
        """A label / relationship type / property name.

        Any keyword is acceptable here with its source spelling preserved —
        IYP itself uses ``:AS`` and ``COUNTRY`` which collide with Cypher
        keywords.
        """
        if self.current.kind in ("IDENT", "KEYWORD"):
            return self.advance().text
        raise self.error(f"expected a name, found {self.current.value!r}")

    # ------------------------------------------------------------------
    # Queries and clauses
    # ------------------------------------------------------------------

    def parse_query(self) -> ast.Query:
        first = self.parse_single_query()
        queries = [first]
        union_all: Optional[bool] = None
        while self.accept_keyword("UNION"):
            this_all = bool(self.accept_keyword("ALL"))
            if union_all is not None and union_all != this_all:
                raise self.error("cannot mix UNION and UNION ALL")
            union_all = this_all
            queries.append(self.parse_single_query())
        if len(queries) == 1:
            return first
        return ast.UnionQuery(tuple(queries), union_all=bool(union_all))

    def parse_single_query(self) -> ast.SingleQuery:
        clauses: list[ast.Clause] = []
        pattern_expressions = self.pattern_expressions
        while True:
            token = self.current
            if token.is_keyword("MATCH") or token.is_keyword("OPTIONAL"):
                clauses.append(self.parse_match())
            elif token.is_keyword("UNWIND"):
                clauses.append(self.parse_unwind())
            elif token.is_keyword("WITH"):
                clauses.append(self.parse_with())
            elif token.is_keyword("RETURN"):
                clauses.append(self.parse_return())
            elif token.is_keyword("CREATE"):
                clauses.append(self.parse_create())
            elif token.is_keyword("MERGE"):
                clauses.append(self.parse_merge())
            elif token.is_keyword("SET"):
                clauses.append(self.parse_set())
            elif token.is_keyword("DELETE") or token.is_keyword("DETACH"):
                clauses.append(self.parse_delete())
            elif token.is_keyword("REMOVE"):
                clauses.append(self.parse_remove())
            else:
                break
        if not clauses:
            raise self.error("empty query")
        return ast.SingleQuery(
            tuple(clauses), pattern_expressions=self.pattern_expressions > pattern_expressions
        )

    def parse_match(self) -> ast.MatchClause:
        optional = bool(self.accept_keyword("OPTIONAL"))
        self.expect_keyword("MATCH")
        pattern = self.parse_pattern()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.MatchClause(pattern=pattern, where=where, optional=optional)

    def parse_unwind(self) -> ast.UnwindClause:
        self.expect_keyword("UNWIND")
        expression = self.parse_expr()
        self.expect_keyword("AS")
        variable = self.parse_name()
        return ast.UnwindClause(expression=expression, variable=variable)

    def _parse_projection_body(
        self,
    ) -> tuple[tuple[ast.ReturnItem, ...], bool, bool, tuple[ast.OrderItem, ...],
               Optional[ast.Expr], Optional[ast.Expr]]:
        distinct = bool(self.accept_keyword("DISTINCT"))
        star = False
        items: list[ast.ReturnItem] = []
        if self.current.kind == "STAR":
            self.advance()
            star = True
            while self.accept("COMMA"):
                items.append(self.parse_return_item())
        else:
            items.append(self.parse_return_item())
            while self.accept("COMMA"):
                items.append(self.parse_return_item())
        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.accept("COMMA"):
                order_by.append(self.parse_order_item())
        skip = limit = None
        if self.accept_keyword("SKIP"):
            skip = self.parse_expr()
        if self.accept_keyword("LIMIT"):
            limit = self.parse_expr()
        return tuple(items), distinct, star, tuple(order_by), skip, limit

    def parse_with(self) -> ast.WithClause:
        self.expect_keyword("WITH")
        items, distinct, star, order_by, skip, limit = self._parse_projection_body()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.WithClause(
            items=items, distinct=distinct, order_by=order_by,
            skip=skip, limit=limit, star=star, where=where,
        )

    def parse_return(self) -> ast.ReturnClause:
        self.expect_keyword("RETURN")
        items, distinct, star, order_by, skip, limit = self._parse_projection_body()
        return ast.ReturnClause(
            items=items, distinct=distinct, order_by=order_by,
            skip=skip, limit=limit, star=star,
        )

    def parse_return_item(self) -> ast.ReturnItem:
        expression = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.parse_name()
        return ast.ReturnItem(expression=expression, alias=alias)

    def parse_order_item(self) -> ast.OrderItem:
        expression = self.parse_expr()
        descending = False
        if self.accept_keyword("DESC", "DESCENDING"):
            descending = True
        else:
            self.accept_keyword("ASC", "ASCENDING")
        return ast.OrderItem(expression=expression, descending=descending)

    def parse_create(self) -> ast.CreateClause:
        self.expect_keyword("CREATE")
        return ast.CreateClause(pattern=self.parse_pattern())

    def parse_merge(self) -> ast.MergeClause:
        self.expect_keyword("MERGE")
        part = self.parse_pattern_part()
        on_create: tuple[ast.SetItem, ...] = ()
        on_match: tuple[ast.SetItem, ...] = ()
        while self.accept_keyword("ON"):
            action = self.expect_keyword("CREATE", "MATCH")
            self.expect_keyword("SET")
            items = self.parse_set_items()
            if action.value == "CREATE":
                on_create += items
            else:
                on_match += items
        return ast.MergeClause(part=part, on_create=on_create, on_match=on_match)

    def parse_set(self) -> ast.SetClause:
        self.expect_keyword("SET")
        return ast.SetClause(items=self.parse_set_items())

    def parse_set_items(self) -> tuple[ast.SetItem, ...]:
        items = [self.parse_set_item()]
        while self.accept("COMMA"):
            items.append(self.parse_set_item())
        return tuple(items)

    def parse_set_item(self) -> ast.SetItem:
        variable = self.parse_name()
        if self.accept("DOT"):
            key = self.parse_label_name()
            self.expect("EQ", "'='")
            return ast.SetItem(
                kind="property", variable=variable, key=key, expression=self.parse_expr()
            )
        if self.current.kind == "PLUS" and self.peek().kind == "EQ":
            self.advance()
            self.advance()
            return ast.SetItem(kind="merge_map", variable=variable, expression=self.parse_expr())
        if self.accept("EQ"):
            return ast.SetItem(kind="replace_map", variable=variable, expression=self.parse_expr())
        if self.current.kind == "COLON":
            labels = []
            while self.accept("COLON"):
                labels.append(self.parse_label_name())
            return ast.SetItem(kind="label", variable=variable, labels=tuple(labels))
        raise self.error("invalid SET item")

    def parse_delete(self) -> ast.DeleteClause:
        detach = bool(self.accept_keyword("DETACH"))
        self.expect_keyword("DELETE")
        expressions = [self.parse_expr()]
        while self.accept("COMMA"):
            expressions.append(self.parse_expr())
        return ast.DeleteClause(expressions=tuple(expressions), detach=detach)

    def parse_remove(self) -> ast.RemoveClause:
        self.expect_keyword("REMOVE")
        items: list[ast.SetItem] = []
        while True:
            variable = self.parse_name()
            if self.accept("DOT"):
                key = self.parse_label_name()
                items.append(ast.SetItem(kind="property", variable=variable, key=key))
            elif self.current.kind == "COLON":
                labels = []
                while self.accept("COLON"):
                    labels.append(self.parse_label_name())
                items.append(ast.SetItem(kind="label", variable=variable, labels=tuple(labels)))
            else:
                raise self.error("invalid REMOVE item")
            if not self.accept("COMMA"):
                break
        return ast.RemoveClause(items=tuple(items))

    # ------------------------------------------------------------------
    # Patterns
    # ------------------------------------------------------------------

    def parse_pattern(self) -> ast.Pattern:
        parts = [self.parse_pattern_part()]
        while self.accept("COMMA"):
            parts.append(self.parse_pattern_part())
        return ast.Pattern(parts=tuple(parts))

    _SHORTEST_NAMES = {"shortestPath": "single", "allShortestPaths": "all"}

    def _at_shortest_function(self) -> bool:
        return (
            self.current.kind == "IDENT"
            and self.current.value in self._SHORTEST_NAMES
            and self.peek().kind == "LPAREN"
        )

    def parse_pattern_part(self) -> ast.PatternPart:
        path_variable = None
        if (
            self.current.kind == "IDENT"
            and self.peek().kind == "EQ"
            and (
                self.peek(2).kind == "LPAREN"
                or (self.peek(2).kind == "IDENT" and self.peek(2).value in self._SHORTEST_NAMES)
            )
        ):
            path_variable = self.advance().value
            self.advance()  # '='
        shortest = None
        if self._at_shortest_function():
            shortest = self._SHORTEST_NAMES[self.advance().value]
            self.expect("LPAREN", "'('")
        elements: list[Union[ast.NodePattern, ast.RelPattern]] = [self.parse_node_pattern()]
        while self.current.kind in ("MINUS", "ARROW_LEFT", "LT"):
            elements.append(self.parse_rel_pattern())
            elements.append(self.parse_node_pattern())
        if shortest is not None:
            self.expect("RPAREN", "')'")
            if len(elements) != 3:
                raise self.error("shortestPath() requires a single relationship pattern")
        return ast.PatternPart(
            elements=tuple(elements), path_variable=path_variable, shortest=shortest
        )

    def parse_node_pattern(self) -> ast.NodePattern:
        self.expect("LPAREN", "'('")
        variable = None
        if self.current.kind == "IDENT":
            variable = self.advance().value
        labels = []
        while self.accept("COLON"):
            labels.append(self.parse_label_name())
        properties: tuple[tuple[str, ast.Expr], ...] = ()
        if self.current.kind == "LBRACE":
            properties = self.parse_map_entries()
        self.expect("RPAREN", "')'")
        return ast.NodePattern(variable=variable, labels=tuple(labels), properties=properties)

    def parse_rel_pattern(self) -> ast.RelPattern:
        left_arrow = False
        if self.accept("ARROW_LEFT"):
            left_arrow = True
        elif self.current.kind == "LT" and self.peek().kind == "MINUS":
            # `< -` split tokens (rare spacing)
            self.advance()
            self.advance()
            left_arrow = True
        else:
            self.expect("MINUS", "'-'")

        variable = None
        types: tuple[str, ...] = ()
        properties: tuple[tuple[str, ast.Expr], ...] = ()
        min_hops = max_hops = None
        var_length = False
        if self.accept("LBRACKET"):
            if self.current.kind == "IDENT":
                variable = self.advance().value
            if self.accept("COLON"):
                type_names = [self.parse_label_name()]
                while self.accept("PIPE"):
                    self.accept("COLON")  # tolerate `|:TYPE`
                    type_names.append(self.parse_label_name())
                types = tuple(type_names)
            if self.accept("STAR"):
                var_length = True
                min_hops, max_hops = self.parse_hop_range()
            if self.current.kind == "LBRACE":
                properties = self.parse_map_entries()
            self.expect("RBRACKET", "']'")

        right_arrow = False
        if self.accept("ARROW_RIGHT"):
            right_arrow = True
        elif self.current.kind == "MINUS" and self.peek().kind == "GT":
            self.advance()
            self.advance()
            right_arrow = True
        else:
            self.expect("MINUS", "'-'")

        if left_arrow and right_arrow:
            raise self.error("relationship cannot point both ways")
        if right_arrow:
            direction = "out"
        elif left_arrow:
            direction = "in"
        else:
            direction = "both"
        return ast.RelPattern(
            variable=variable, types=types, direction=direction,
            properties=properties, min_hops=min_hops, max_hops=max_hops,
            var_length=var_length,
        )

    def parse_hop_range(self) -> tuple[Optional[int], Optional[int]]:
        """After ``*``: ``*``, ``*n``, ``*n..``, ``*..m`` or ``*n..m``."""
        min_hops = max_hops = None
        if self.current.kind == "INT":
            min_hops = int(self.advance().value)
            if self.accept("DOTDOT"):
                if self.current.kind == "INT":
                    max_hops = int(self.advance().value)
            else:
                max_hops = min_hops
        elif self.accept("DOTDOT"):
            if self.current.kind == "INT":
                max_hops = int(self.advance().value)
        return min_hops, max_hops

    def parse_map_entries(self) -> tuple[tuple[str, ast.Expr], ...]:
        self.expect("LBRACE", "'{'")
        entries: list[tuple[str, ast.Expr]] = []
        if self.current.kind != "RBRACE":
            while True:
                key = self.parse_map_key()
                self.expect("COLON", "':'")
                entries.append((key, self.parse_expr()))
                if not self.accept("COMMA"):
                    break
        self.expect("RBRACE", "'}'")
        return tuple(entries)

    def parse_map_key(self) -> str:
        if self.current.kind == "IDENT":
            return self.advance().value
        if self.current.kind == "STRING":
            return self.advance().value
        if self.current.kind == "KEYWORD":
            return self.advance().text
        raise self.error(f"expected map key, found {self.current.value!r}")

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        operands = [self.parse_xor()]
        while self.accept_keyword("OR"):
            operands.append(self.parse_xor())
        if len(operands) == 1:
            return operands[0]
        return ast.BooleanOp(op="OR", operands=tuple(operands))

    def parse_xor(self) -> ast.Expr:
        operands = [self.parse_and()]
        while self.accept_keyword("XOR"):
            operands.append(self.parse_and())
        if len(operands) == 1:
            return operands[0]
        return ast.BooleanOp(op="XOR", operands=tuple(operands))

    def parse_and(self) -> ast.Expr:
        operands = [self.parse_not()]
        while self.accept_keyword("AND"):
            operands.append(self.parse_not())
        if len(operands) == 1:
            return operands[0]
        return ast.BooleanOp(op="AND", operands=tuple(operands))

    def parse_not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.NotOp(operand=self.parse_not())
        return self.parse_comparison()

    _COMPARISON_OPS = {"EQ": "=", "NEQ": "<>", "LT": "<", "GT": ">",
                       "LTE": "<=", "GTE": ">=", "REGEQ": "=~"}

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_additive()
        # Postfix predicates
        while True:
            if self.current.is_keyword("IS"):
                self.advance()
                negated = bool(self.accept_keyword("NOT"))
                self.expect_keyword("NULL")
                left = ast.IsNull(operand=left, negated=negated)
                continue
            if self.current.is_keyword("STARTS"):
                self.advance()
                self.expect_keyword("WITH")
                left = ast.StringPredicate(op="STARTS", left=left, right=self.parse_additive())
                continue
            if self.current.is_keyword("ENDS"):
                self.advance()
                self.expect_keyword("WITH")
                left = ast.StringPredicate(op="ENDS", left=left, right=self.parse_additive())
                continue
            if self.current.is_keyword("CONTAINS"):
                self.advance()
                left = ast.StringPredicate(op="CONTAINS", left=left, right=self.parse_additive())
                continue
            if self.current.is_keyword("IN"):
                self.advance()
                left = ast.InList(value=left, container=self.parse_additive())
                continue
            if self.current.kind == "COLON" and isinstance(left, ast.Variable):
                # Label predicate: `n:AS` (desugared to hasLabel()).
                labels = []
                while self.accept("COLON"):
                    labels.append(self.parse_label_name())
                left = ast.FunctionCall(
                    name="hasLabel", args=(left, ast.Literal(labels))
                )
                continue
            break
        if self.current.kind in self._COMPARISON_OPS:
            operands = [left]
            ops = []
            while self.current.kind in self._COMPARISON_OPS:
                ops.append(self._COMPARISON_OPS[self.advance().kind])
                operands.append(self.parse_additive())
            return ast.Comparison(operands=tuple(operands), ops=tuple(ops))
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while self.current.kind in ("PLUS", "MINUS"):
            op = self.advance().value
            left = ast.BinaryOp(op=op, left=left, right=self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_power()
        while self.current.kind in ("STAR", "SLASH", "PERCENT"):
            op = self.advance().value
            left = ast.BinaryOp(op=op, left=left, right=self.parse_power())
        return left

    def parse_power(self) -> ast.Expr:
        left = self.parse_unary()
        if self.current.kind == "CARET":
            self.advance()
            # right-associative
            return ast.BinaryOp(op="^", left=left, right=self.parse_power())
        return left

    def parse_unary(self) -> ast.Expr:
        if self.current.kind in ("MINUS", "PLUS"):
            op = self.advance().value
            return ast.UnaryOp(op=op, operand=self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_atom()
        while True:
            if self.accept("DOT"):
                expr = ast.PropertyAccess(subject=expr, key=self.parse_label_name())
                continue
            if self.current.kind == "LBRACKET":
                self.advance()
                expr = self._parse_subscript_or_slice(expr)
                continue
            break
        return expr

    def _parse_subscript_or_slice(self, subject: ast.Expr) -> ast.Expr:
        start: Optional[ast.Expr] = None
        if self.current.kind != "DOTDOT":
            start = self.parse_expr()
        if self.accept("DOTDOT"):
            end: Optional[ast.Expr] = None
            if self.current.kind != "RBRACKET":
                end = self.parse_expr()
            self.expect("RBRACKET", "']'")
            return ast.Slice(subject=subject, start=start, end=end)
        self.expect("RBRACKET", "']'")
        if start is None:
            raise self.error("empty subscript")
        return ast.Subscript(subject=subject, index=start)

    def parse_atom(self) -> ast.Expr:
        token = self.current
        if token.kind == "INT":
            self.advance()
            return ast.Literal(int(token.value))
        if token.kind == "FLOAT":
            self.advance()
            return ast.Literal(float(token.value))
        if token.kind == "STRING":
            self.advance()
            return ast.Literal(token.value)
        if token.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if token.kind == "DOLLAR":
            self.advance()
            if self.current.kind in ("IDENT", "INT"):
                return ast.Parameter(self.advance().value)
            if self.current.kind == "KEYWORD":
                return ast.Parameter(self.advance().value.lower())
            raise self.error("expected parameter name after '$'")
        if token.is_keyword("COUNT"):
            # count(*) or count(expr)
            if self.peek().kind == "LPAREN":
                self.advance()
                self.advance()
                if self.current.kind == "STAR":
                    self.advance()
                    self.expect("RPAREN", "')'")
                    return ast.CountStar()
                distinct = bool(self.accept_keyword("DISTINCT"))
                arg = self.parse_expr()
                self.expect("RPAREN", "')'")
                return ast.FunctionCall(name="count", args=(arg,), distinct=distinct)
            self.advance()
            return ast.Variable("count")
        if token.is_keyword("CASE"):
            return self.parse_case()
        if token.is_keyword("EXISTS"):
            self.advance()
            if self.accept("LPAREN"):
                if self.current.kind == "LPAREN":
                    part = self.parse_pattern_part()
                    self.expect("RPAREN", "')'")
                    self.pattern_expressions += 1
                    return ast.ExistsExpr(target=part)
                inner = self.parse_expr()
                self.expect("RPAREN", "')'")
                return ast.ExistsExpr(target=inner)
            if self.accept("LBRACE"):
                self.accept_keyword("MATCH")
                part = self.parse_pattern_part()
                self.expect("RBRACE", "'}'")
                self.pattern_expressions += 1
                return ast.ExistsExpr(target=part)
            raise self.error("expected '(' or '{' after EXISTS")
        if token.kind == "LBRACKET":
            return self.parse_list_or_comprehension()
        if token.kind == "LBRACE":
            return ast.MapLiteral(items=self.parse_map_entries())
        if token.kind == "LPAREN":
            # Could be a parenthesised expression or a pattern predicate
            # like `(a)-[:X]->(b)`.
            if self._looks_like_pattern():
                self.pattern_expressions += 1
                return ast.PatternPredicate(pattern=self.parse_pattern_part())
            self.advance()
            expr = self.parse_expr()
            self.expect("RPAREN", "')'")
            return expr
        if token.kind == "IDENT" or (
            token.kind == "KEYWORD" and token.value in ("ALL", "END")
        ):
            name = self.advance().value
            if self.current.kind == "LPAREN":
                lowered = name.lower()
                quantifier_ahead = (
                    self.peek().kind == "IDENT" and self.peek(2).is_keyword("IN")
                )
                if lowered in ("any", "all", "none", "single") and quantifier_ahead:
                    return self.parse_quantifier(lowered)
                if lowered == "reduce":
                    return self.parse_reduce()
                self.advance()
                distinct = bool(self.accept_keyword("DISTINCT"))
                args: list[ast.Expr] = []
                if self.current.kind != "RPAREN":
                    args.append(self.parse_expr())
                    while self.accept("COMMA"):
                        args.append(self.parse_expr())
                self.expect("RPAREN", "')'")
                return ast.FunctionCall(name=name, args=tuple(args), distinct=distinct)
            return ast.Variable(name)
        raise self.error(f"unexpected token {token.value!r}")

    def _looks_like_pattern(self) -> bool:
        """Does `(`...`)` at the cursor start a relationship pattern?

        Two conditions disambiguate from parenthesised arithmetic like
        ``(x + 1) - 2``: the parenthesised contents must have node-pattern
        shape (optional variable, labels, optional property map), and the
        close paren must be followed by a relationship continuation
        (``<-``, ``-[`` or ``--``).
        """
        tokens = self.tokens
        j = self.index + 1  # just past '('
        if tokens[j].kind == "IDENT":
            j += 1
        while tokens[j].kind == "COLON":
            j += 1
            if tokens[j].kind in ("IDENT", "KEYWORD"):
                j += 1
            else:
                return False
        if tokens[j].kind == "LBRACE":
            depth = 1
            j += 1
            while depth and tokens[j].kind != "EOF":
                if tokens[j].kind == "LBRACE":
                    depth += 1
                elif tokens[j].kind == "RBRACE":
                    depth -= 1
                j += 1
            if depth:
                return False
        if tokens[j].kind != "RPAREN":
            return False
        nxt = tokens[j + 1] if j + 1 < len(tokens) else None
        if nxt is None:
            return False
        if nxt.kind == "ARROW_LEFT":
            return True
        if nxt.kind == "MINUS":
            nxt2 = tokens[j + 2] if j + 2 < len(tokens) else None
            return nxt2 is not None and nxt2.kind in ("LBRACKET", "MINUS")
        return False

    def parse_case(self) -> ast.Expr:
        self.expect_keyword("CASE")
        subject = None
        if not self.current.is_keyword("WHEN"):
            subject = self.parse_expr()
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expr()
            self.expect_keyword("THEN")
            whens.append((condition, self.parse_expr()))
        if not whens:
            raise self.error("CASE requires at least one WHEN")
        default = None
        if self.accept_keyword("ELSE"):
            default = self.parse_expr()
        self.expect_keyword("END")
        return ast.CaseExpr(subject=subject, whens=tuple(whens), default=default)

    def parse_quantifier(self, kind: str) -> ast.Expr:
        """``any/all/none/single(var IN list WHERE predicate)``."""
        self.expect("LPAREN", "'('")
        variable = self.parse_name()
        self.expect_keyword("IN")
        source = self.parse_or()
        self.expect_keyword("WHERE")
        predicate = self.parse_expr()
        self.expect("RPAREN", "')'")
        return ast.Quantifier(kind=kind, variable=variable, source=source, predicate=predicate)

    def parse_reduce(self) -> ast.Expr:
        """``reduce(acc = init, var IN list | expression)``."""
        self.expect("LPAREN", "'('")
        accumulator = self.parse_name()
        self.expect("EQ", "'='")
        initial = self.parse_expr()
        self.expect("COMMA", "','")
        variable = self.parse_name()
        self.expect_keyword("IN")
        source = self.parse_or()
        self.expect("PIPE", "'|'")
        expression = self.parse_expr()
        self.expect("RPAREN", "')'")
        return ast.Reduce(
            accumulator=accumulator, initial=initial, variable=variable,
            source=source, expression=expression,
        )

    def parse_list_or_comprehension(self) -> ast.Expr:
        self.expect("LBRACKET", "'['")
        if self.current.kind == "RBRACKET":
            self.advance()
            return ast.ListLiteral(items=())
        # Pattern comprehension: `[(a)-[:X]->(b) WHERE p | expr]`.
        if self.current.kind == "LPAREN" and self._looks_like_pattern():
            part = self.parse_pattern_part()
            predicate = None
            if self.accept_keyword("WHERE"):
                predicate = self.parse_expr()
            self.expect("PIPE", "'|'")
            projection = self.parse_expr()
            self.expect("RBRACKET", "']'")
            self.pattern_expressions += 1
            return ast.PatternComprehension(
                pattern=part, predicate=predicate, projection=projection
            )
        # Lookahead for `name IN`
        if (
            self.current.kind == "IDENT"
            and self.peek().is_keyword("IN")
        ):
            variable = self.advance().value
            self.advance()  # IN
            source = self.parse_or()
            predicate = None
            projection = None
            if self.accept_keyword("WHERE"):
                predicate = self.parse_expr()
            if self.accept("PIPE"):
                projection = self.parse_expr()
            self.expect("RBRACKET", "']'")
            return ast.ListComprehension(
                variable=variable, source=source,
                predicate=predicate, projection=projection,
            )
        items = [self.parse_expr()]
        while self.accept("COMMA"):
            items.append(self.parse_expr())
        self.expect("RBRACKET", "']'")
        return ast.ListLiteral(items=tuple(items))
