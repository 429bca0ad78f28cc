"""Built-in scalar and aggregate functions of the Cypher subset.

Scalar functions receive already-evaluated argument values plus an
execution context (for graph-touching functions like ``labels`` and
``degree``).  Aggregates receive the full list of per-row values collected
over a group.

Function names are case-insensitive, as in Neo4j.  The arithmetic and
comparison operator kernels the expression evaluator calls live here too.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Optional

from ..graph.model import Node, Path, Relationship
from ..graph.store import GraphStore
from .errors import CypherRuntimeError, CypherTypeError, UnknownFunctionError
from .values import cypher_compare, cypher_equals, ensure_number, equality_key, sort_key

__all__ = [
    "SCALAR_FUNCTIONS",
    "AGGREGATE_FUNCTIONS",
    "is_aggregate_function",
    "call_scalar",
    "call_aggregate",
    "binary_operation",
    "compare_once",
]

ScalarFn = Callable[..., Any]
AggregateFn = Callable[[list[Any]], Any]


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------

def _null_safe(fn: ScalarFn) -> ScalarFn:
    """Wrap a function to return null when any argument is null."""

    def wrapper(store: GraphStore, *args: Any) -> Any:
        if any(arg is None for arg in args):
            return None
        return fn(store, *args)

    return wrapper


def _fn_id(store: GraphStore, entity: Any) -> int:
    if isinstance(entity, Node):
        return entity.node_id
    if isinstance(entity, Relationship):
        return entity.rel_id
    raise CypherTypeError(f"id() expects a node or relationship, got {entity!r}")


def _fn_labels(store: GraphStore, node: Any) -> list[str]:
    if not isinstance(node, Node):
        raise CypherTypeError(f"labels() expects a node, got {node!r}")
    return sorted(node.labels)


def _fn_has_label(store: GraphStore, entity: Any, labels: Any) -> bool:
    if not isinstance(entity, Node):
        raise CypherTypeError(f"label predicate expects a node, got {entity!r}")
    wanted = labels if isinstance(labels, list) else [labels]
    return all(label in entity.labels for label in wanted)


def _fn_type(store: GraphStore, rel: Any) -> str:
    if not isinstance(rel, Relationship):
        raise CypherTypeError(f"type() expects a relationship, got {rel!r}")
    return rel.rel_type


def _fn_properties(store: GraphStore, entity: Any) -> dict[str, Any]:
    if isinstance(entity, (Node, Relationship)):
        return dict(entity.properties)
    if isinstance(entity, dict):
        return dict(entity)
    raise CypherTypeError(f"properties() expects a node/relationship/map, got {entity!r}")


def _fn_keys(store: GraphStore, entity: Any) -> list[str]:
    if isinstance(entity, (Node, Relationship)):
        return sorted(entity.properties)
    if isinstance(entity, dict):
        return sorted(entity)
    raise CypherTypeError(f"keys() expects a node/relationship/map, got {entity!r}")


def _fn_size(store: GraphStore, value: Any) -> int:
    if isinstance(value, (list, str)):
        return len(value)
    if isinstance(value, dict):
        return len(value)
    raise CypherTypeError(f"size() expects a list or string, got {value!r}")


def _fn_length(store: GraphStore, value: Any) -> int:
    if isinstance(value, Path):
        return value.length
    if isinstance(value, (list, str)):
        return len(value)
    raise CypherTypeError(f"length() expects a path, got {value!r}")


def _fn_nodes(store: GraphStore, path: Any) -> list[Node]:
    if not isinstance(path, Path):
        raise CypherTypeError(f"nodes() expects a path, got {path!r}")
    return list(path.nodes)


def _fn_relationships(store: GraphStore, path: Any) -> list[Relationship]:
    if not isinstance(path, Path):
        raise CypherTypeError(f"relationships() expects a path, got {path!r}")
    return list(path.relationships)


def _fn_start_node(store: GraphStore, rel: Any) -> Node:
    if not isinstance(rel, Relationship):
        raise CypherTypeError(f"startNode() expects a relationship, got {rel!r}")
    return store.node(rel.start_id)


def _fn_end_node(store: GraphStore, rel: Any) -> Node:
    if not isinstance(rel, Relationship):
        raise CypherTypeError(f"endNode() expects a relationship, got {rel!r}")
    return store.node(rel.end_id)


def _fn_degree(store: GraphStore, node: Any, *rel_type: str) -> int:
    if not isinstance(node, Node):
        raise CypherTypeError(f"degree() expects a node, got {node!r}")
    types = list(rel_type) if rel_type else None
    return store.degree(node.node_id, "both", types)


def _fn_head(store: GraphStore, value: Any) -> Any:
    if not isinstance(value, list):
        raise CypherTypeError(f"head() expects a list, got {value!r}")
    return value[0] if value else None


def _fn_last(store: GraphStore, value: Any) -> Any:
    if not isinstance(value, list):
        raise CypherTypeError(f"last() expects a list, got {value!r}")
    return value[-1] if value else None


def _fn_tail(store: GraphStore, value: Any) -> Any:
    if not isinstance(value, list):
        raise CypherTypeError(f"tail() expects a list, got {value!r}")
    return value[1:]


def _fn_reverse(store: GraphStore, value: Any) -> Any:
    if isinstance(value, str):
        return value[::-1]
    if isinstance(value, list):
        return value[::-1]
    raise CypherTypeError(f"reverse() expects a list or string, got {value!r}")


def _fn_range(store: GraphStore, start: Any, end: Any, step: Any = 1) -> list[int]:
    for value, name in ((start, "start"), (end, "end"), (step, "step")):
        if isinstance(value, bool) or not isinstance(value, int):
            raise CypherTypeError(f"range() {name} must be an integer, got {value!r}")
    if step == 0:
        raise CypherRuntimeError("range() step cannot be zero")
    if step > 0:
        return list(range(start, end + 1, step))
    return list(range(start, end - 1, step))


def _fn_coalesce(store: GraphStore, *args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _fn_to_string(store: GraphStore, value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return f"{value:.1f}"
    return str(value)


def _fn_to_integer(store: GraphStore, value: Any) -> Optional[int]:
    if isinstance(value, bool):
        raise CypherTypeError("toInteger() does not accept booleans")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value)
    if isinstance(value, str):
        try:
            return int(float(value)) if "." in value or "e" in value.lower() else int(value)
        except ValueError:
            return None
    raise CypherTypeError(f"toInteger() expects a number or string, got {value!r}")


def _fn_to_float(store: GraphStore, value: Any) -> Optional[float]:
    if isinstance(value, bool):
        raise CypherTypeError("toFloat() does not accept booleans")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    raise CypherTypeError(f"toFloat() expects a number or string, got {value!r}")


def _fn_to_boolean(store: GraphStore, value: Any) -> Optional[bool]:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered == "true":
            return True
        if lowered == "false":
            return False
        return None
    raise CypherTypeError(f"toBoolean() expects a boolean or string, got {value!r}")


def _string_fn(name: str, fn: Callable[..., Any]) -> ScalarFn:
    def wrapper(store: GraphStore, value: Any, *rest: Any) -> Any:
        if not isinstance(value, str):
            raise CypherTypeError(f"{name}() expects a string, got {value!r}")
        return fn(value, *rest)

    return wrapper


def _fn_substring(value: str, start: Any, length: Any = None) -> str:
    start = int(ensure_number(start, "substring() start"))
    if length is None:
        return value[start:]
    length = int(ensure_number(length, "substring() length"))
    return value[start : start + length]


def _fn_split(value: str, sep: Any) -> list[str]:
    if not isinstance(sep, str):
        raise CypherTypeError(f"split() separator must be a string, got {sep!r}")
    return value.split(sep)


def _fn_replace(value: str, search: Any, replacement: Any) -> str:
    if not isinstance(search, str) or not isinstance(replacement, str):
        raise CypherTypeError("replace() expects string arguments")
    return value.replace(search, replacement)


def _fn_left(value: str, n: Any) -> str:
    return value[: int(ensure_number(n, "left()"))]


def _fn_right(value: str, n: Any) -> str:
    n = int(ensure_number(n, "right()"))
    return value[-n:] if n else ""


def _math_fn(name: str, fn: Callable[[float], float], integer_result: bool = False) -> ScalarFn:
    def wrapper(store: GraphStore, value: Any) -> Any:
        number = ensure_number(value, f"{name}()")
        result = fn(number)
        if integer_result and isinstance(number, int):
            return int(result)
        return result

    return wrapper


def _fn_round(store: GraphStore, value: Any, precision: Any = 0) -> float:
    number = ensure_number(value, "round()")
    digits = int(ensure_number(precision, "round() precision"))
    # Neo4j rounds half away from zero.
    scale = 10**digits
    scaled = number * scale
    rounded = math.floor(scaled + 0.5) if scaled >= 0 else math.ceil(scaled - 0.5)
    result = rounded / scale
    return float(result)


def _fn_abs(store: GraphStore, value: Any) -> Any:
    number = ensure_number(value, "abs()")
    return abs(number)


def _fn_sign(store: GraphStore, value: Any) -> int:
    number = ensure_number(value, "sign()")
    return (number > 0) - (number < 0)


SCALAR_FUNCTIONS: dict[str, ScalarFn] = {
    "id": _null_safe(_fn_id),
    "labels": _null_safe(_fn_labels),
    "haslabel": _null_safe(_fn_has_label),
    "type": _null_safe(_fn_type),
    "properties": _null_safe(_fn_properties),
    "keys": _null_safe(_fn_keys),
    "size": _null_safe(_fn_size),
    "length": _null_safe(_fn_length),
    "nodes": _null_safe(_fn_nodes),
    "relationships": _null_safe(_fn_relationships),
    "startnode": _null_safe(_fn_start_node),
    "endnode": _null_safe(_fn_end_node),
    "degree": _null_safe(_fn_degree),
    "head": _null_safe(_fn_head),
    "last": _null_safe(_fn_last),
    "tail": _null_safe(_fn_tail),
    "reverse": _null_safe(_fn_reverse),
    "range": _fn_range,
    "coalesce": _fn_coalesce,
    "tostring": _null_safe(_fn_to_string),
    "tointeger": _null_safe(_fn_to_integer),
    "tofloat": _null_safe(_fn_to_float),
    "toboolean": _null_safe(_fn_to_boolean),
    "toupper": _null_safe(_string_fn("toUpper", str.upper)),
    "tolower": _null_safe(_string_fn("toLower", str.lower)),
    "upper": _null_safe(_string_fn("upper", str.upper)),
    "lower": _null_safe(_string_fn("lower", str.lower)),
    "trim": _null_safe(_string_fn("trim", str.strip)),
    "ltrim": _null_safe(_string_fn("lTrim", str.lstrip)),
    "rtrim": _null_safe(_string_fn("rTrim", str.rstrip)),
    "substring": _null_safe(_string_fn("substring", _fn_substring)),
    "split": _null_safe(_string_fn("split", _fn_split)),
    "replace": _null_safe(_string_fn("replace", _fn_replace)),
    "left": _null_safe(_string_fn("left", _fn_left)),
    "right": _null_safe(_string_fn("right", _fn_right)),
    "abs": _null_safe(_fn_abs),
    "sign": _null_safe(_fn_sign),
    "round": _null_safe(_fn_round),
    "ceil": _null_safe(_math_fn("ceil", math.ceil, integer_result=True)),
    "floor": _null_safe(_math_fn("floor", math.floor, integer_result=True)),
    "sqrt": _null_safe(_math_fn("sqrt", math.sqrt)),
    "exp": _null_safe(_math_fn("exp", math.exp)),
    "log": _null_safe(_math_fn("log", math.log)),
    "log10": _null_safe(_math_fn("log10", math.log10)),
    "sin": _null_safe(_math_fn("sin", math.sin)),
    "cos": _null_safe(_math_fn("cos", math.cos)),
    "tan": _null_safe(_math_fn("tan", math.tan)),
    "pi": lambda store: math.pi,
}


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

def _agg_count(values: list[Any]) -> int:
    return sum(1 for value in values if value is not None)


def _agg_sum(values: list[Any]) -> Any:
    numbers = [ensure_number(v, "sum()") for v in values if v is not None]
    if not numbers:
        return 0
    return sum(numbers)


def _agg_avg(values: list[Any]) -> Any:
    numbers = [ensure_number(v, "avg()") for v in values if v is not None]
    if not numbers:
        return None
    return sum(numbers) / len(numbers)


def _agg_min(values: list[Any]) -> Any:
    present = [v for v in values if v is not None]
    if not present:
        return None
    best = present[0]
    for value in present[1:]:
        result = cypher_compare(value, best)
        if result is not None and result < 0:
            best = value
        elif result is None and sort_key(value) < sort_key(best):
            best = value
    return best


def _agg_max(values: list[Any]) -> Any:
    present = [v for v in values if v is not None]
    if not present:
        return None
    best = present[0]
    for value in present[1:]:
        result = cypher_compare(value, best)
        if result is not None and result > 0:
            best = value
        elif result is None and sort_key(value) > sort_key(best):
            best = value
    return best


def _agg_collect(values: list[Any]) -> list[Any]:
    return [value for value in values if value is not None]


def _agg_stdev(values: list[Any]) -> Any:
    numbers = [float(ensure_number(v, "stDev()")) for v in values if v is not None]
    if len(numbers) < 2:
        return 0.0
    mean = sum(numbers) / len(numbers)
    variance = sum((x - mean) ** 2 for x in numbers) / (len(numbers) - 1)
    return math.sqrt(variance)


def _agg_stdevp(values: list[Any]) -> Any:
    numbers = [float(ensure_number(v, "stDevP()")) for v in values if v is not None]
    if not numbers:
        return 0.0
    mean = sum(numbers) / len(numbers)
    variance = sum((x - mean) ** 2 for x in numbers) / len(numbers)
    return math.sqrt(variance)


def _make_percentile(disc: bool) -> AggregateFn:
    def aggregate(values: list[Any]) -> Any:
        if not values:
            return None
        *samples, percentile = values
        if percentile and isinstance(percentile, list):
            # values arrive as [(value, p), ...]; unreachable in practice
            raise CypherRuntimeError("percentile aggregation received bad input")
        raise CypherRuntimeError("percentile functions need two arguments")

    return aggregate


def percentile(values: list[Any], fraction: float, disc: bool) -> Any:
    """Shared implementation of percentileCont / percentileDisc."""
    numbers = sorted(float(ensure_number(v, "percentile()")) for v in values if v is not None)
    if not numbers:
        return None
    if not 0.0 <= fraction <= 1.0:
        raise CypherRuntimeError(f"percentile fraction must be in [0,1], got {fraction}")
    if len(numbers) == 1:
        return numbers[0]
    position = fraction * (len(numbers) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if disc:
        return numbers[round(position)]
    if lower == upper:
        return numbers[lower]
    weight = position - lower
    return numbers[lower] * (1 - weight) + numbers[upper] * weight


AGGREGATE_FUNCTIONS: dict[str, AggregateFn] = {
    "count": _agg_count,
    "sum": _agg_sum,
    "avg": _agg_avg,
    "min": _agg_min,
    "max": _agg_max,
    "collect": _agg_collect,
    "stdev": _agg_stdev,
    "stdevp": _agg_stdevp,
    # percentile* handled specially by the executor (two-argument form)
    "percentilecont": _make_percentile(disc=False),
    "percentiledisc": _make_percentile(disc=True),
}


def is_aggregate_function(name: str) -> bool:
    """Return True when ``name`` refers to an aggregate function."""
    return name.lower() in AGGREGATE_FUNCTIONS


def call_scalar(store: GraphStore, name: str, args: list[Any]) -> Any:
    """Dispatch a scalar function call by (case-insensitive) name."""
    fn = SCALAR_FUNCTIONS.get(name.lower())
    if fn is None:
        raise UnknownFunctionError(name)
    try:
        return fn(store, *args)
    except TypeError as exc:
        raise CypherRuntimeError(f"bad arguments for {name}(): {exc}") from exc
    except (ValueError, ArithmeticError) as exc:
        # Domain and range failures of the math/string kernels (sqrt(-1),
        # exp(1000), floor(NaN), split(s, '')) are query errors.
        raise CypherRuntimeError(f"{name}() failed: {exc}") from exc


def call_aggregate(name: str, values: list[Any], distinct: bool = False) -> Any:
    """Dispatch an aggregate over the collected per-row ``values``."""
    fn = AGGREGATE_FUNCTIONS.get(name.lower())
    if fn is None:
        raise UnknownFunctionError(name)
    if distinct:
        # First occurrence of each equality class, in input order; values
        # equal to nothing (null, NaN, lists/maps holding one) all stay.
        seen: set[Any] = set()
        unique: list[Any] = []
        for value in values:
            key = equality_key(value)
            if key is not None:
                if key in seen:
                    continue
                seen.add(key)
            unique.append(value)
        values = unique
    return fn(values)


def regex_match(value: str, pattern: str) -> bool:
    """Full-string regex match (Cypher's ``=~``).

    Compiled patterns are reused through the ``re`` module's own bounded
    cache, so a query with many distinct patterns cannot grow memory.
    """
    try:
        return re.fullmatch(pattern, value) is not None
    except re.error as exc:
        raise CypherRuntimeError(f"invalid regular expression {pattern!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Operator kernels (arithmetic, concatenation, one comparison step)
# ---------------------------------------------------------------------------

def math_fmod(left: float | int, right: float | int) -> float | int:
    """Cypher ``%``: sign follows the dividend, ints stay ints."""
    result = abs(left) % abs(right)
    if left < 0:
        result = -result
    if isinstance(left, int) and isinstance(right, int):
        return int(result)
    return float(result)


def concat_text(value: Any) -> str:
    """Render a value for string concatenation the way Neo4j does."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return f"{value:.1f}"
    return str(value)


def binary_operation(op: str, left: Any, right: Any) -> Any:
    """Cypher arithmetic on two already-evaluated operands."""
    if left is None or right is None:
        return None
    if op == "+":
        if isinstance(left, str) and isinstance(right, str):
            return left + right
        if isinstance(left, list) and isinstance(right, list):
            return left + right
        if isinstance(left, list):
            return left + [right]
        if isinstance(right, list):
            return [left] + right
        if isinstance(left, str) or isinstance(right, str):
            # Neo4j allows string + number concatenation
            return f"{concat_text(left)}{concat_text(right)}"
    if isinstance(left, bool) or isinstance(right, bool):
        raise CypherTypeError(f"operator {op} does not accept booleans")
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise CypherTypeError(f"operator {op} expects numbers, got {left!r}, {right!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            if isinstance(left, int) and isinstance(right, int):
                raise CypherRuntimeError("integer division by zero")
            return float("inf") if left > 0 else float("-inf") if left < 0 else float("nan")
        if isinstance(left, int) and isinstance(right, int):
            quotient = abs(left) // abs(right)
            return quotient if (left >= 0) == (right >= 0) else -quotient
        return left / right
    if op == "%":
        if right == 0:
            raise CypherRuntimeError("modulo by zero")
        return math_fmod(left, right)
    if op == "^":
        try:
            return math.pow(left, right)
        except (ValueError, OverflowError) as exc:
            raise CypherRuntimeError(f"{left!r} ^ {right!r} is undefined or out of range") from exc
    raise CypherRuntimeError(f"unknown operator {op}")


def compare_once(op: str, left: Any, right: Any) -> Optional[bool]:
    """One ternary-logic comparison step on already-evaluated operands."""
    if op == "=":
        return cypher_equals(left, right)
    if op == "<>":
        equal = cypher_equals(left, right)
        return None if equal is None else not equal
    if op == "=~":
        if left is None or right is None:
            return None
        if not isinstance(left, str) or not isinstance(right, str):
            raise CypherTypeError("=~ expects string operands")
        return regex_match(left, right)
    comparison = cypher_compare(left, right)
    if comparison is None:
        return None
    if op == "<":
        return comparison < 0
    if op == ">":
        return comparison > 0
    if op == "<=":
        return comparison <= 0
    if op == ">=":
        return comparison >= 0
    raise CypherRuntimeError(f"unknown comparison {op}")
