"""Expression evaluation: Cypher expression ASTs against a binding row.

One :class:`Evaluator` serves one execution.  It reads the run's parameters
and store from the execution context, and runs pattern predicates, ``EXISTS``
patterns and pattern comprehensions through their operator sub-chains
(``context.pattern_chain``).
Aggregates are evaluated over a whole group of rows by
:meth:`Evaluator.evaluate_aggregate`.
"""

from __future__ import annotations

from typing import Any, Optional

from ..graph.model import Node, Relationship
from . import ast_nodes as ast
from .errors import CypherRuntimeError, CypherSyntaxError, CypherTypeError
from .functions import (
    binary_operation,
    call_aggregate,
    call_scalar,
    compare_once,
    is_aggregate_function,
    percentile,
)
from .values import cypher_equals, is_truthy

__all__ = ["Evaluator"]

Row = dict[str, Any]


class Evaluator:
    """Evaluates expression ASTs against a row environment."""

    # expression class -> unbound handler, shared across instances so the
    # per-call getattr string formatting happens once per AST node type
    _dispatch: dict[type, Any] = {}

    def __init__(self, context: Any) -> None:
        self.context = context

    def evaluate(self, expr: ast.Expr, row: Row) -> Any:
        cls = expr.__class__
        method = Evaluator._dispatch.get(cls)
        if method is None:
            method = getattr(Evaluator, f"_eval_{cls.__name__}", None)
            if method is None:
                raise CypherRuntimeError(f"cannot evaluate {cls.__name__}")
            Evaluator._dispatch[cls] = method
        return method(self, expr, row)

    # -- atoms ----------------------------------------------------------

    def _eval_Literal(self, expr: ast.Literal, row: Row) -> Any:
        return expr.value

    def _eval_Parameter(self, expr: ast.Parameter, row: Row) -> Any:
        if expr.name not in self.context.params:
            raise CypherRuntimeError(f"missing parameter: ${expr.name}")
        return self.context.params[expr.name]

    def _eval_Variable(self, expr: ast.Variable, row: Row) -> Any:
        if expr.name not in row:
            raise CypherRuntimeError(f"unknown variable: {expr.name}")
        return row[expr.name]

    def _eval_PropertyAccess(self, expr: ast.PropertyAccess, row: Row) -> Any:
        subject_expr = expr.subject
        if subject_expr.__class__ is ast.Variable:
            subject = self._eval_Variable(subject_expr, row)
        else:
            subject = self.evaluate(subject_expr, row)
        if subject is None:
            return None
        if isinstance(subject, (Node, Relationship)):
            return subject.properties.get(expr.key)
        if isinstance(subject, dict):
            return subject.get(expr.key)
        raise CypherTypeError(
            f"cannot access property {expr.key!r} on {type(subject).__name__}"
        )

    def _eval_Subscript(self, expr: ast.Subscript, row: Row) -> Any:
        subject = self.evaluate(expr.subject, row)
        index = self.evaluate(expr.index, row)
        if subject is None or index is None:
            return None
        if isinstance(subject, list):
            if isinstance(index, bool) or not isinstance(index, int):
                raise CypherTypeError(f"list index must be an integer, got {index!r}")
            if -len(subject) <= index < len(subject):
                return subject[index]
            return None
        if isinstance(subject, (dict,)):
            return subject.get(index)
        if isinstance(subject, (Node, Relationship)):
            return subject.properties.get(index)
        raise CypherTypeError(f"cannot subscript {type(subject).__name__}")

    def _eval_Slice(self, expr: ast.Slice, row: Row) -> Any:
        subject = self.evaluate(expr.subject, row)
        if subject is None:
            return None
        if not isinstance(subject, list):
            raise CypherTypeError("slicing requires a list")
        start = self.evaluate(expr.start, row) if expr.start is not None else None
        end = self.evaluate(expr.end, row) if expr.end is not None else None
        for bound in (start, end):
            if bound is not None and (isinstance(bound, bool) or not isinstance(bound, int)):
                raise CypherTypeError(f"list slice bounds must be integers, got {bound!r}")
        return subject[start:end]

    def _eval_ListLiteral(self, expr: ast.ListLiteral, row: Row) -> list[Any]:
        return [self.evaluate(item, row) for item in expr.items]

    def _eval_MapLiteral(self, expr: ast.MapLiteral, row: Row) -> dict[str, Any]:
        return {key: self.evaluate(value, row) for key, value in expr.items}

    # -- operators --------------------------------------------------------

    def _eval_UnaryOp(self, expr: ast.UnaryOp, row: Row) -> Any:
        value = self.evaluate(expr.operand, row)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CypherTypeError(f"unary {expr.op} expects a number, got {value!r}")
        return -value if expr.op == "-" else +value

    def _eval_BinaryOp(self, expr: ast.BinaryOp, row: Row) -> Any:
        left = self.evaluate(expr.left, row)
        right = self.evaluate(expr.right, row)
        return binary_operation(expr.op, left, right)

    def _eval_Comparison(self, expr: ast.Comparison, row: Row) -> Optional[bool]:
        values = [self.evaluate(operand, row) for operand in expr.operands]
        result: Optional[bool] = True
        for op, left, right in zip(expr.ops, values, values[1:]):
            outcome = compare_once(op, left, right)
            if outcome is False:
                return False
            if outcome is None:
                result = None
        return result

    def _eval_BooleanOp(self, expr: ast.BooleanOp, row: Row) -> Optional[bool]:
        saw_null = False
        if expr.op == "AND":
            for operand in expr.operands:
                value = is_truthy(self.evaluate(operand, row))
                if value is False:
                    return False
                if value is None:
                    saw_null = True
            return None if saw_null else True
        if expr.op == "OR":
            for operand in expr.operands:
                value = is_truthy(self.evaluate(operand, row))
                if value is True:
                    return True
                if value is None:
                    saw_null = True
            return None if saw_null else False
        # XOR
        result: Optional[bool] = False
        for operand in expr.operands:
            value = is_truthy(self.evaluate(operand, row))
            if value is None:
                return None
            result = bool(result) ^ value
        return result

    def _eval_NotOp(self, expr: ast.NotOp, row: Row) -> Optional[bool]:
        value = is_truthy(self.evaluate(expr.operand, row))
        return None if value is None else not value

    def _eval_IsNull(self, expr: ast.IsNull, row: Row) -> bool:
        value = self.evaluate(expr.operand, row)
        return (value is not None) if expr.negated else (value is None)

    def _eval_StringPredicate(self, expr: ast.StringPredicate, row: Row) -> Optional[bool]:
        left = self.evaluate(expr.left, row)
        right = self.evaluate(expr.right, row)
        if left is None or right is None:
            return None
        if not isinstance(left, str) or not isinstance(right, str):
            return None
        if expr.op == "STARTS":
            return left.startswith(right)
        if expr.op == "ENDS":
            return left.endswith(right)
        return right in left

    def _eval_InList(self, expr: ast.InList, row: Row) -> Optional[bool]:
        value = self.evaluate(expr.value, row)
        container = self.evaluate(expr.container, row)
        if container is None:
            return None
        if not isinstance(container, list):
            raise CypherTypeError(f"IN expects a list, got {container!r}")
        saw_null = False
        for item in container:
            equal = cypher_equals(value, item)
            if equal is True:
                return True
            if equal is None:
                saw_null = True
        return None if saw_null else False

    def _eval_CaseExpr(self, expr: ast.CaseExpr, row: Row) -> Any:
        if expr.subject is not None:
            subject = self.evaluate(expr.subject, row)
            for condition, result in expr.whens:
                if cypher_equals(subject, self.evaluate(condition, row)) is True:
                    return self.evaluate(result, row)
        else:
            for condition, result in expr.whens:
                if is_truthy(self.evaluate(condition, row)) is True:
                    return self.evaluate(result, row)
        if expr.default is not None:
            return self.evaluate(expr.default, row)
        return None

    def _eval_ListComprehension(self, expr: ast.ListComprehension, row: Row) -> Any:
        source = self.evaluate(expr.source, row)
        if source is None:
            return None
        if not isinstance(source, list):
            raise CypherTypeError("list comprehension requires a list source")
        output = []
        for item in source:
            inner = dict(row)
            inner[expr.variable] = item
            if expr.predicate is not None:
                if is_truthy(self.evaluate(expr.predicate, inner)) is not True:
                    continue
            if expr.projection is not None:
                output.append(self.evaluate(expr.projection, inner))
            else:
                output.append(item)
        return output

    def _eval_Quantifier(self, expr: ast.Quantifier, row: Row) -> Optional[bool]:
        source = self.evaluate(expr.source, row)
        if source is None:
            return None
        if not isinstance(source, list):
            raise CypherTypeError(f"{expr.kind}() requires a list, got {source!r}")
        trues = falses = nulls = 0
        for item in source:
            inner = dict(row)
            inner[expr.variable] = item
            outcome = is_truthy(self.evaluate(expr.predicate, inner))
            if outcome is True:
                trues += 1
            elif outcome is False:
                falses += 1
            else:
                nulls += 1
        if expr.kind == "any":
            if trues > 0:
                return True
            return None if nulls else False
        if expr.kind == "all":
            if falses > 0:
                return False
            return None if nulls else True
        if expr.kind == "none":
            if trues > 0:
                return False
            return None if nulls else True
        # single: exactly one true
        if nulls:
            return None
        return trues == 1

    def _eval_Reduce(self, expr: ast.Reduce, row: Row) -> Any:
        source = self.evaluate(expr.source, row)
        if source is None:
            return None
        if not isinstance(source, list):
            raise CypherTypeError(f"reduce() requires a list, got {source!r}")
        accumulator = self.evaluate(expr.initial, row)
        for item in source:
            inner = dict(row)
            inner[expr.accumulator] = accumulator
            inner[expr.variable] = item
            accumulator = self.evaluate(expr.expression, inner)
        return accumulator

    def _eval_PatternPredicate(self, expr: ast.PatternPredicate, row: Row) -> bool:
        return bool(self.context.pattern_chain(expr).matches(row, first_only=True))

    def _eval_PatternComprehension(self, expr: ast.PatternComprehension, row: Row) -> list[Any]:
        output: list[Any] = []
        for matched in self.context.pattern_chain(expr).matches(row):
            if expr.predicate is not None:
                if is_truthy(self.evaluate(expr.predicate, matched)) is not True:
                    continue
            output.append(self.evaluate(expr.projection, matched))
        return output

    def _eval_ExistsExpr(self, expr: ast.ExistsExpr, row: Row) -> bool:
        if isinstance(expr.target, ast.PatternPart):
            return bool(self.context.pattern_chain(expr).matches(row, first_only=True))
        return self.evaluate(expr.target, row) is not None

    def _eval_CountStar(self, expr: ast.CountStar, row: Row) -> Any:
        raise CypherSyntaxError("count(*) is only allowed in a projection")

    def _eval_FunctionCall(self, expr: ast.FunctionCall, row: Row) -> Any:
        if is_aggregate_function(expr.name):
            raise CypherSyntaxError(
                f"aggregate function {expr.name}() is only allowed in a projection"
            )
        args = [self.evaluate(arg, row) for arg in expr.args]
        return call_scalar(self.context.store, expr.name, args)

    # -- aggregation ------------------------------------------------------

    def evaluate_aggregate(self, expr: ast.Expr, group_rows: list[Row]) -> Any:
        """Evaluate ``expr`` in aggregate context over ``group_rows``.

        Aggregate calls consume the whole group; everything else is
        evaluated against the group's first row (grouping keys are constant
        within a group by construction).
        """
        if isinstance(expr, ast.CountStar):
            return len(group_rows)
        if isinstance(expr, ast.FunctionCall) and is_aggregate_function(expr.name):
            name = expr.name.lower()
            if name in ("percentilecont", "percentiledisc"):
                if len(expr.args) != 2:
                    raise CypherRuntimeError(f"{expr.name}() expects two arguments")
                values = [self.evaluate(expr.args[0], row) for row in group_rows]
                first = group_rows[0] if group_rows else {}
                fraction = self.evaluate(expr.args[1], first)
                return percentile(values, float(fraction), disc=name.endswith("disc"))
            if len(expr.args) != 1:
                raise CypherRuntimeError(f"{expr.name}() expects one argument")
            values = [self.evaluate(expr.args[0], row) for row in group_rows]
            return call_aggregate(expr.name, values, distinct=expr.distinct)
        if isinstance(expr, ast.BinaryOp):
            left = self.evaluate_aggregate(expr.left, group_rows)
            right = self.evaluate_aggregate(expr.right, group_rows)
            shim = ast.BinaryOp(op=expr.op, left=ast.Literal(left), right=ast.Literal(right))
            return self.evaluate(shim, {})
        if isinstance(expr, ast.UnaryOp):
            value = self.evaluate_aggregate(expr.operand, group_rows)
            return self.evaluate(ast.UnaryOp(op=expr.op, operand=ast.Literal(value)), {})
        if isinstance(expr, ast.Comparison):
            values = [self.evaluate_aggregate(op, group_rows) for op in expr.operands]
            shim = ast.Comparison(
                operands=tuple(ast.Literal(v) for v in values), ops=expr.ops
            )
            return self.evaluate(shim, {})
        if isinstance(expr, ast.FunctionCall):
            args = [self.evaluate_aggregate(arg, group_rows) for arg in expr.args]
            return call_scalar(self.context.store, expr.name, args)
        if isinstance(expr, ast.ListLiteral):
            return [self.evaluate_aggregate(item, group_rows) for item in expr.items]
        if isinstance(expr, ast.CaseExpr):
            first = group_rows[0] if group_rows else {}
            return self.evaluate(expr, first)
        first = group_rows[0] if group_rows else {}
        return self.evaluate(expr, first)
