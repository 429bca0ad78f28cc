"""Recursive-descent parser for the Cypher subset.

Entry point: :func:`parse`.  The grammar covers the read clauses IYP
queries use in practice — MATCH / OPTIONAL MATCH / WHERE / WITH / RETURN /
ORDER BY / SKIP / LIMIT / UNWIND / UNION [ALL] — and two writes, CREATE and
``SET variable.key = expression``, plus the full expression language
(boolean ternary logic, comparisons, string predicates, list/map literals,
CASE, list comprehensions, variable-length paths, parameters).  MERGE,
DELETE, DETACH DELETE, REMOVE and the other SET forms raise
:class:`~repro.cypher.errors.UnsupportedWrite` where they start.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from . import ast_nodes as ast
from .errors import CypherSyntaxError, UnsupportedWrite
from .lexer import Token, tokenize

__all__ = ["parse", "parse_expression", "parse_shape", "LiteralForm", "MAX_EXPRESSION_DEPTH"]

#: The deepest expression the parser accepts, in levels: every bracket,
#: parenthesis, argument list, operator and property access on the way down
#: to the innermost operand is one.  Nesting and operator chains count alike
#: (``[[1]]`` and ``1 + 1 + 1`` are both three deep).  The parser, lowering,
#: evaluation and rendering all recurse once or more per level; this keeps
#: them well inside Python's recursion limit, even in a server thread.
MAX_EXPRESSION_DEPTH = 48


def parse(text: str) -> ast.Query:
    """Parse a complete Cypher query into an AST.

    Raises:
        CypherSyntaxError: on any lexical or grammatical problem.
    """
    parser = _Parser(text)
    query = parser.parse_query()
    parser.expect_end()
    return query


def parse_shape(
    text: str, tokens: list[Token], slots: dict[int, ast.Slot]
) -> Optional[ast.Query]:
    """Parse ``text``, already tokenized as ``tokens``, into its shape's tree:
    the literal at each token index in ``slots`` becomes that slot node.

    Returns None when the tree cannot serve other values: a token in
    ``slots`` was not parsed as a literal (it was syntax), or a slot would
    name a column (an unaliased WITH/RETURN item holds it).

    Raises:
        CypherSyntaxError: exactly as :func:`parse` raises on ``text``.
    """
    parser = _Parser(text, tokens, slots)
    query = parser.parse_query()
    parser.expect_end()
    return query if parser.lifted == len(slots) and not parser.slot_named else None


#: Each literal token kind and how :meth:`_Parser.parse_atom` converts its value.
_LITERAL_KINDS = {"STRING": str, "INT": int, "FLOAT": float}
#: A number after these is a parameter name (``$1``) or a hop bound (``*2``,
#: ``..3``) when it is not a product's factor or a slice end.
_SYNTAX_AFTER = frozenset({"DOLLAR", "STAR", "DOTDOT"})


class LiteralForm:
    """How the texts of one *form* key their shapes.  A form is the text
    between the literals that :data:`~.lexer.LITERAL_SPLIT` cuts out; a
    text's shape key is its form with :meth:`fill`'s signature of its
    literals.

    Made once from the form's first text's tokens (:meth:`of`), it records
    each literal's kind and whether it stays in the key: a literal the
    parser may read as syntax keeps its spelling there (a number after
    ``$``, ``*`` or ``..``, and a string before ``:``, a map key).  Every
    literal-valued token, TRUE/FALSE/NULL included, joins the group of the
    first token whose value equals its own under ``==``, and the signature
    records each group, so texts of one key share the literals' equality
    pattern.  A literal grouped with a kept one has its value fixed by the
    key; it stays a literal of the tree and is not lifted.
    """

    __slots__ = ("items",)

    def __init__(self, items: tuple) -> None:
        #: per literal-valued token, in token order, ``(index, literal
        #: number, kind, kept)``; for TRUE/FALSE/NULL ``(index, -1, None,
        #: value)``
        self.items = items

    @classmethod
    def of(cls, tokens: list[Token], parts: list[str]) -> Optional[LiteralForm]:
        """The form of a text without backticks or backslashes, from its
        ``tokens`` and its split ``parts``; None unless the STRING/INT/FLOAT
        tokens are exactly the split's literals (a comment can hold a quote
        or a digit, and `n.5` lexes as `n`, `.5`)."""
        keyword_values = _Parser._KEYWORD_LITERALS
        literals = parts[1::2]
        items = []
        start = number = 0
        previous = ""
        for index, token in enumerate(tokens):
            kind = token.kind
            if kind in _LITERAL_KINDS:
                if number == len(literals):
                    return None
                start += len(parts[2 * number])
                text = literals[number]
                spelled = text[1:-1] if kind == "STRING" else text
                if token.position != start or token.value != spelled:
                    return None
                start += len(text)
                kept = previous in _SYNTAX_AFTER or (
                    kind == "STRING" and tokens[index + 1].kind == "COLON")
                items.append((index, number, kind, kept))
                number += 1
            elif kind == "KEYWORD" and token.value in keyword_values:
                items.append((index, -1, None, keyword_values[token.value]))
            previous = kind
        if number != len(literals):
            return None
        return cls(tuple(items))

    def fill(self, literals: list[str]) -> Optional[tuple[tuple, tuple, list]]:
        """``(signature, values, lifted)`` for the text of this form with
        ``literals``: the lifted literals' values in token order and, for
        each, ``(token index, value, group)``.  None when a literal's kind
        differs from the first text's, or a number does not convert (past
        ``int()``'s digit limit)."""
        signature = []
        groups: dict = {}
        kept: set[int] = set()
        masked: list[tuple[int, object, int]] = []
        for index, number, kind, keep in self.items:
            if number < 0:  # TRUE/FALSE/NULL, spelled in the form: keep its value
                group = groups.setdefault(keep, index)
                kept.add(group)
                signature.append(group)
                continue
            text = literals[number]
            if kind == "STRING":
                if text[0] not in "'\"":
                    return None
                value = spelled = text[1:-1]
            else:
                if (kind == "FLOAT") == text.isdecimal():
                    return None
                spelled = text
                try:  # a quoted text does not convert either
                    value = int(text) if kind == "INT" else float(text)
                except ValueError:
                    return None
            group = groups.setdefault(value, index)
            if keep:
                kept.add(group)
                signature.append((kind, spelled, group))
            else:
                masked.append((index, value, group))
                signature.append((kind, group))
        lifted = [entry for entry in masked if entry[2] not in kept]
        return tuple(signature), tuple([value for _, value, _ in lifted]), lifted


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used in tests and the REPL)."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.expect_end()
    return expr


class _Parser:
    """Token cursor with one helper method per grammar production.

    ``current`` is the token under the cursor, kept by :meth:`advance`; the
    token list always ends in an EOF token, which the cursor never passes.
    """

    def __init__(
        self, text: str, tokens: Optional[list[Token]] = None,
        slots: Optional[dict[int, ast.Slot]] = None,
    ) -> None:
        self.text = text
        self.tokens = tokenize(text) if tokens is None else tokens
        self.index = 0
        self.current = self.tokens[0]
        #: pattern predicates, EXISTS patterns and comprehensions parsed so far
        self.pattern_expressions = 0
        #: token index -> the slot node its literal becomes (parse_shape)
        self.slots = slots
        self.lifted = 0
        #: whether a slot is in an implicit column name (parse_shape)
        self.slot_named = False
        #: expressions open around the cursor (parse_expr)
        self.depth = 0

    # ------------------------------------------------------------------
    # Cursor helpers
    # ------------------------------------------------------------------

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.index + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "EOF":
            self.index += 1
            self.current = self.tokens[self.index]
        return token

    def accept(self, kind: str) -> Optional[Token]:
        """Consume and return the current token if it is of ``kind`` (never EOF)."""
        token = self.current
        if token.kind != kind:
            return None
        self.index += 1
        self.current = self.tokens[self.index]
        return token

    def accept_keyword(self, *names: str) -> Optional[Token]:
        token = self.current
        if token.kind == "KEYWORD" and token.value in names:
            return self.advance()
        return None

    def expect(self, kind: str, what: str = "") -> Token:
        """Consume and return the current token, which must be of ``kind`` (never EOF)."""
        token = self.current
        if token.kind != kind:
            raise self.error(f"expected {what or kind}, found {token.value!r}")
        self.index += 1
        self.current = self.tokens[self.index]
        return token

    def expect_keyword(self, *names: str) -> Token:
        token = self.current
        if token.kind != "KEYWORD" or token.value not in names:
            raise self.error(f"expected {'/'.join(names)}, found {token.value!r}")
        return self.advance()

    def expect_end(self) -> None:
        self.accept("SEMICOLON")
        if self.current.kind != "EOF":
            raise self.error(f"unexpected input {self.current.value!r}")

    def error(self, message: str) -> CypherSyntaxError:
        return CypherSyntaxError(message, self.current.position, self.text)

    def parse_name(self) -> str:
        """An identifier; also tolerates non-reserved keyword-looking names."""
        token = self.current
        if token.kind == "IDENT":
            return self.advance().value
        # COUNT and a few others are keywords but valid as identifiers in
        # some positions (e.g. a variable named `count`).
        if token.is_keyword("COUNT", "ALL", "END"):
            return self.advance().text
        raise self.error(f"expected a name, found {token.value!r}")

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
        while self.current.kind == "KEYWORD":
            parse_clause = self._CLAUSES.get(self.current.value)
            if parse_clause is None:
                break
            clauses.append(parse_clause(self))
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
        lifted = self.lifted
        expression = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.parse_name()
        elif self.lifted != lifted:
            self.slot_named = True
        return ast.ReturnItem(expression=expression, alias=alias)

    def parse_order_item(self) -> ast.OrderItem:
        expression = self.parse_expr()
        descending = bool(self.accept_keyword("DESC", "DESCENDING"))
        if not descending:
            self.accept_keyword("ASC", "ASCENDING")
        return ast.OrderItem(expression=expression, descending=descending)

    def parse_create(self) -> ast.CreateClause:
        self.expect_keyword("CREATE")
        return ast.CreateClause(pattern=self.parse_pattern())

    def parse_set(self) -> ast.SetClause:
        self.expect_keyword("SET")
        items = [self.parse_set_item()]
        while self.accept("COMMA"):
            items.append(self.parse_set_item())
        return ast.SetClause(items=tuple(items))

    def parse_set_item(self) -> ast.SetItem:
        start = self.current.position
        variable = self.parse_name()
        if self.accept("DOT"):
            key = self.parse_label_name()
            self.expect("EQ", "'='")
            return ast.SetItem(variable=variable, key=key, expression=self.parse_expr())
        if self.current.kind in ("EQ", "COLON") or (
            self.current.kind == "PLUS" and self.peek().kind == "EQ"
        ):
            raise UnsupportedWrite(
                "SET supports only variable.key = expression", start, self.text
            )
        raise self.error("invalid SET item")

    def parse_unsupported_write(self) -> ast.Clause:
        name = "DETACH DELETE" if self.current.value == "DETACH" else self.current.value
        raise UnsupportedWrite(
            f"{name} is not supported; the only writes are CREATE and "
            "SET variable.key = expression",
            self.current.position, self.text,
        )

    #: clause keyword -> the production that parses the clause it starts
    _CLAUSES = {
        "MATCH": parse_match, "OPTIONAL": parse_match, "UNWIND": parse_unwind,
        "WITH": parse_with, "RETURN": parse_return, "CREATE": parse_create,
        "SET": parse_set, "MERGE": parse_unsupported_write,
        "DELETE": parse_unsupported_write, "DETACH": parse_unsupported_write,
        "REMOVE": parse_unsupported_write,
    }

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
                # a type named twice matches its relationships once
                types = tuple(dict.fromkeys(type_names))
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
            min_hops = self.literal_value()
            if self.accept("DOTDOT"):
                if self.current.kind == "INT":
                    max_hops = self.literal_value()
            else:
                max_hops = min_hops
        elif self.accept("DOTDOT"):
            if self.current.kind == "INT":
                max_hops = self.literal_value()
        return min_hops, max_hops

    def literal_value(self) -> Any:
        """The value of the STRING/INT/FLOAT token under the cursor, which
        it consumes.  An integer past ``int()``'s digit limit is a syntax
        error at the token."""
        token = self.current
        try:
            value = _LITERAL_KINDS[token.kind](token.value)
        except ValueError:
            raise self.error(f"integer literal too long ({len(token.value)} digits)") from None
        self.advance()
        return value

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

    def _parse_boolean(self, op: str, parse_operand) -> ast.Expr:
        """Operands of ``parse_operand`` joined by keyword ``op``; a lone
        operand is returned as is, with no list built."""
        left = parse_operand()
        token = self.current
        if token.value != op or token.kind != "KEYWORD":
            return left
        operands = [left]
        while token.value == op and token.kind == "KEYWORD":
            self.advance()
            operands.append(parse_operand())
            token = self.current
        return ast.BooleanOp(op=op, operands=tuple(operands))

    def parse_expr(self) -> ast.Expr:
        """An expression.  Every nested expression starts here (below, only
        precedence climbing recurses, a bounded step), so ``depth`` bounds
        the parser's recursion.  Operator chains are built in loops, so the
        finished tree's depth is checked too, once per outermost expression.
        """
        self.depth += 1
        if self.depth > MAX_EXPRESSION_DEPTH:
            raise self.error("expression nested too deeply")
        expr = self._parse_boolean("OR", self.parse_xor)
        self.depth -= 1
        if not self.depth:
            self._check_tree_depth(expr)
        return expr

    def _check_tree_depth(self, expr: ast.Expr) -> None:
        """Raise when ``expr``'s tree is deeper than MAX_EXPRESSION_DEPTH."""
        level, depth = [expr], 1
        while True:
            below = []
            # A tuple's items are at its depth: they join the level being read.
            for node in level:
                if node.__class__ is tuple:
                    level.extend(node)
                    continue
                for name in ast.CHILD_FIELDS.get(node.__class__, ()):
                    child = getattr(node, name)
                    if child:  # a node; not None or an empty tuple
                        below.append(child)
            if not below:
                return
            depth += 1
            if depth > MAX_EXPRESSION_DEPTH:
                raise self.error("expression nested too deeply")
            level = below

    def parse_xor(self) -> ast.Expr:
        return self._parse_boolean("XOR", self.parse_and)

    def parse_and(self) -> ast.Expr:
        return self._parse_boolean("AND", self.parse_not)

    def parse_not(self) -> ast.Expr:
        negations = 0
        while self.current.value == "NOT" and self.current.kind == "KEYWORD":
            self.advance()
            negations += 1
        expr = self.parse_comparison()
        for _ in range(negations):
            expr = ast.NotOp(operand=expr)
        return expr

    _COMPARISON_OPS = {"EQ": "=", "NEQ": "<>", "LT": "<", "GT": ">",
                       "LTE": "<=", "GTE": ">=", "REGEQ": "=~"}

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_additive()
        # Postfix predicates
        while True:
            token = self.current
            if token.kind == "KEYWORD":
                keyword = token.value
                if keyword == "IS":
                    self.advance()
                    negated = bool(self.accept_keyword("NOT"))
                    self.expect_keyword("NULL")
                    left = ast.IsNull(operand=left, negated=negated)
                elif keyword in ("STARTS", "ENDS", "CONTAINS"):
                    self.advance()
                    if keyword != "CONTAINS":
                        self.expect_keyword("WITH")
                    left = ast.StringPredicate(op=keyword, left=left, right=self.parse_additive())
                elif keyword == "IN":
                    self.advance()
                    left = ast.InList(value=left, container=self.parse_additive())
                else:
                    break
            elif token.kind == "COLON" and isinstance(left, ast.Variable):
                # Label predicate: `n:AS` (desugared to hasLabel()).
                labels = []
                while self.accept("COLON"):
                    labels.append(self.parse_label_name())
                left = ast.FunctionCall(
                    name="hasLabel", args=(left, ast.Literal(labels))
                )
            else:
                break
        if token.kind in self._COMPARISON_OPS:
            operands = [left]
            ops = []
            while self.current.kind in self._COMPARISON_OPS:
                ops.append(self._COMPARISON_OPS[self.advance().kind])
                operands.append(self.parse_additive())
            return ast.Comparison(operands=tuple(operands), ops=tuple(ops))
        return left

    #: binary arithmetic operator token -> precedence level (higher binds tighter)
    _ARITHMETIC = {"PLUS": 1, "MINUS": 1, "STAR": 2, "SLASH": 2, "PERCENT": 2}

    def parse_additive(self, min_level: int = 1) -> ast.Expr:
        """Left-associative ``+ -`` over ``* / %``, by precedence climbing."""
        left = self.parse_power()
        level = self._ARITHMETIC.get(self.current.kind, 0)
        while level >= min_level:
            op = self.advance().value
            left = ast.BinaryOp(op=op, left=left, right=self.parse_additive(level + 1))
            level = self._ARITHMETIC.get(self.current.kind, 0)
        return left

    def parse_power(self) -> ast.Expr:
        operands = [self.parse_unary()]
        while self.accept("CARET"):
            operands.append(self.parse_unary())
        # right-associative
        expr = operands.pop()
        while operands:
            expr = ast.BinaryOp(op="^", left=operands.pop(), right=expr)
        return expr

    def parse_unary(self) -> ast.Expr:
        signs = []
        while self.current.kind in ("MINUS", "PLUS"):
            signs.append(self.advance().value)
        expr = self.parse_postfix()
        for op in reversed(signs):
            expr = ast.UnaryOp(op=op, operand=expr)
        return expr

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_atom()
        while True:
            kind = self.current.kind
            if kind == "DOT":
                self.advance()
                expr = ast.PropertyAccess(subject=expr, key=self.parse_label_name())
            elif kind == "LBRACKET":
                self.advance()
                expr = self._parse_subscript_or_slice(expr)
            else:
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
        kind = token.kind
        if kind == "IDENT" or kind == "KEYWORD" and token.value in ("ALL", "END"):
            name = self.advance().value
            if self.current.kind != "LPAREN":
                return ast.Variable(name)
            lowered = name.lower()
            if lowered in ("any", "all", "none", "single"):
                variable, keyword = self.peek(), self.peek(2)
                if variable.kind == "IDENT" and keyword.is_keyword("IN"):
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
        if kind in _LITERAL_KINDS:
            if self.slots:
                slot = self.slots.get(self.index)
                if slot is not None:
                    self.advance()
                    self.lifted += 1
                    return slot
            return ast.Literal(self.literal_value())
        if kind == "KEYWORD":
            keyword = token.value
            if keyword in self._KEYWORD_LITERALS:
                self.advance()
                return ast.Literal(self._KEYWORD_LITERALS[keyword])
            if keyword == "COUNT":
                return self.parse_count()
            if keyword == "CASE":
                return self.parse_case()
            if keyword == "EXISTS":
                return self.parse_exists()
        elif kind == "DOLLAR":
            self.advance()
            if self.current.kind in ("IDENT", "INT"):
                return ast.Parameter(self.advance().value)
            if self.current.kind == "KEYWORD":
                return ast.Parameter(self.advance().value.lower())
            raise self.error("expected parameter name after '$'")
        elif kind == "LBRACKET":
            return self.parse_list_or_comprehension()
        elif kind == "LBRACE":
            return ast.MapLiteral(items=self.parse_map_entries())
        elif kind == "LPAREN":
            # Could be a parenthesised expression or a pattern predicate
            # like `(a)-[:X]->(b)`.
            if self._looks_like_pattern():
                self.pattern_expressions += 1
                return ast.PatternPredicate(pattern=self.parse_pattern_part())
            self.advance()
            expr = self.parse_expr()
            self.expect("RPAREN", "')'")
            return expr
        raise self.error(f"unexpected token {token.value!r}")

    _KEYWORD_LITERALS = {"TRUE": True, "FALSE": False, "NULL": None}

    def parse_count(self) -> ast.Expr:
        """``count(*)``, ``count([DISTINCT] expr)`` or a variable named ``count``."""
        self.advance()
        if self.current.kind != "LPAREN":
            return ast.Variable("count")
        self.advance()
        if self.current.kind == "STAR":
            self.advance()
            self.expect("RPAREN", "')'")
            return ast.CountStar()
        distinct = bool(self.accept_keyword("DISTINCT"))
        arg = self.parse_expr()
        self.expect("RPAREN", "')'")
        return ast.FunctionCall(name="count", args=(arg,), distinct=distinct)

    def parse_exists(self) -> ast.Expr:
        """``EXISTS(pattern)``, ``EXISTS(expr)`` or ``EXISTS { [MATCH] pattern }``."""
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
        source = self.parse_expr()
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
        source = self.parse_expr()
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
        following = self.peek()
        if self.current.kind == "IDENT" and following.is_keyword("IN"):
            variable = self.advance().value
            self.advance()  # IN
            source = self.parse_expr()
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
